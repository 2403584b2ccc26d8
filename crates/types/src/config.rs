//! Tunable protocol parameters.
//!
//! Configuration structs are plain data: all fields are public and the
//! defaults reproduce the configuration used by the paper's evaluation
//! (epidemic fanout of `ln N + c`, ten slices, periodic gossip in the order
//! of seconds). [`NodeConfig::for_system_size`] derives a consistent
//! configuration for a target system size, which is what the simulator and
//! the benchmark harness use.

use crate::time::Duration;

/// Parameters of the Peer Sampling Service (Cyclon).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PssConfig {
    /// Size of the partial view (number of neighbour descriptors kept).
    ///
    /// The epidemic dissemination literature (and the paper's background
    /// section) calls for `ln N + c` entries for reliable dissemination.
    pub view_size: usize,
    /// Number of descriptors exchanged in one shuffle (`l` in Cyclon).
    pub shuffle_length: usize,
    /// Period between two shuffles initiated by a node.
    pub shuffle_period: Duration,
    /// Size of the intra-slice view maintained once the node knows its slice.
    pub intra_view_size: usize,
    /// Maximum age after which a descriptor is considered stale and dropped
    /// (ages are measured in shuffle rounds).
    pub max_descriptor_age: u32,
}

impl Default for PssConfig {
    fn default() -> Self {
        Self {
            view_size: 20,
            shuffle_length: 8,
            shuffle_period: Duration::from_secs(1),
            intra_view_size: 12,
            max_descriptor_age: 20,
        }
    }
}

impl PssConfig {
    /// Derives the view size `ln N + c` recommended for epidemic
    /// dissemination in a system of `system_size` nodes.
    #[must_use]
    pub fn view_size_for(system_size: usize, c: usize) -> usize {
        ((system_size.max(2) as f64).ln().ceil() as usize) + c
    }
}

/// Parameters of the distributed slicing protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlicingConfig {
    /// Number of slices `k` the system is divided into.
    pub slice_count: u32,
    /// Number of attribute samples kept by the rank estimator.
    pub sample_buffer_size: usize,
    /// Number of attribute samples pushed in one gossip exchange.
    pub samples_per_exchange: usize,
    /// Period between two slicing gossip exchanges initiated by a node.
    pub gossip_period: Duration,
    /// Number of gossip rounds a sample stays in the buffer before it is
    /// considered stale (protects the rank estimate against departed nodes).
    pub sample_ttl_rounds: u32,
}

impl Default for SlicingConfig {
    fn default() -> Self {
        Self {
            slice_count: 10,
            sample_buffer_size: 128,
            samples_per_exchange: 16,
            gossip_period: Duration::from_secs(1),
            sample_ttl_rounds: 30,
        }
    }
}

/// Parameters of the epidemic request dissemination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisseminationConfig {
    /// Fanout used when forwarding a request outside its target slice.
    pub global_fanout: usize,
    /// Maximum number of hops a request travels outside its target slice.
    pub global_ttl: u32,
    /// Fanout used when forwarding a request inside its target slice.
    pub intra_fanout: usize,
    /// Maximum number of hops a request travels inside its target slice.
    pub intra_ttl: u32,
    /// Length `W` of each per-client duplicate-suppression window, in
    /// request sequence numbers (rounded up to a multiple of 64): a node
    /// remembers which of the `W` sequences below a client's newest it has
    /// seen and refuses older ones as stale. Costs `W / 8` bytes per active
    /// client per node, for at most 64 clients per node.
    pub dedup_cache_size: usize,
}

impl Default for DisseminationConfig {
    fn default() -> Self {
        Self {
            global_fanout: 8,
            global_ttl: 6,
            intra_fanout: 8,
            intra_ttl: 6,
            dedup_cache_size: 4096,
        }
    }
}

/// Parameters of replication maintenance (anti-entropy inside a slice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// Whether periodic anti-entropy repair is enabled.
    ///
    /// The paper lists replication maintenance under churn as future work;
    /// the mechanism is implemented here and can be disabled to reproduce the
    /// paper's baseline behaviour.
    pub anti_entropy_enabled: bool,
    /// Period between two anti-entropy exchanges initiated by a node.
    pub anti_entropy_period: Duration,
    /// Maximum number of objects shipped in one anti-entropy reply, bounding
    /// the cost of a single state-transfer message.
    pub max_objects_per_exchange: usize,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self {
            anti_entropy_enabled: true,
            anti_entropy_period: Duration::from_secs(5),
            max_objects_per_exchange: 256,
        }
    }
}

/// Default number of key-range shards a node's data store is split into
/// (mirrors `dataflasks_store::DEFAULT_SHARD_COUNT`).
pub const DEFAULT_STORE_SHARDS: u32 = 8;

/// Complete configuration of a DataFlasks node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeConfig {
    /// Peer Sampling Service parameters.
    pub pss: PssConfig,
    /// Distributed slicing parameters.
    pub slicing: SlicingConfig,
    /// Epidemic dissemination parameters.
    pub dissemination: DisseminationConfig,
    /// Replication maintenance parameters.
    pub replication: ReplicationConfig,
    /// Capacity of the local data store in abstract object units
    /// (0 means unbounded).
    pub store_capacity_objects: usize,
    /// Number of key-range shards the node's data store is split into, so
    /// anti-entropy digests, shipping diffs and slice-migration scans touch
    /// only affected shards. `0` and `1` both mean a single (unsharded)
    /// shard.
    pub store_shards: u32,
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self {
            pss: PssConfig::default(),
            slicing: SlicingConfig::default(),
            dissemination: DisseminationConfig::default(),
            replication: ReplicationConfig::default(),
            store_capacity_objects: 0,
            store_shards: DEFAULT_STORE_SHARDS,
        }
    }
}

impl NodeConfig {
    /// Derives a consistent configuration for a system of `system_size` nodes
    /// divided into `slice_count` slices.
    ///
    /// The epidemic view size and fanouts are set to `ln N + c` (with the
    /// constant `c = 3` used throughout the evaluation), and the intra-slice
    /// parameters are derived from the expected slice size `N / k`.
    #[must_use]
    pub fn for_system_size(system_size: usize, slice_count: u32) -> Self {
        let fanout = PssConfig::view_size_for(system_size, 3);
        let slice_size = (system_size / slice_count.max(1) as usize).max(2);
        let intra_fanout = PssConfig::view_size_for(slice_size, 3);
        Self {
            pss: PssConfig {
                view_size: fanout.max(8),
                shuffle_length: (fanout / 2).max(4),
                intra_view_size: intra_fanout.max(6),
                ..PssConfig::default()
            },
            slicing: SlicingConfig {
                slice_count,
                // The rank estimator can only distinguish `buffer + 1` rank
                // levels, so the buffer must exceed the slice count or entire
                // slices become unclaimable (no node's quantised rank ever
                // lands in them, and every key hashing there is unservable).
                // Two samples per slice keeps every slice claimable while
                // bounding per-node memory at large `k`.
                sample_buffer_size: (2 * slice_count as usize)
                    .max(SlicingConfig::default().sample_buffer_size),
                ..SlicingConfig::default()
            },
            dissemination: DisseminationConfig {
                // The global phase is a *search* for the target slice, not a
                // broadcast: a small fanout suffices because views are biased
                // towards known slice members (paper §IV-B: reach only the
                // percentage of nodes needed to hit the slice). The intra
                // phase must cover the whole slice, so it uses ln(slice) + c.
                global_fanout: 3,
                intra_fanout: intra_fanout.max(4),
                global_ttl: Self::hops_to_cover(system_size, fanout.max(4)),
                intra_ttl: Self::hops_to_cover(slice_size, intra_fanout.max(4)),
                ..DisseminationConfig::default()
            },
            replication: ReplicationConfig::default(),
            store_capacity_objects: 0,
            store_shards: DEFAULT_STORE_SHARDS,
        }
    }

    /// Number of epidemic hops needed for a fanout-`f` flood to cover `n`
    /// nodes, with two extra hops of slack.
    #[must_use]
    pub fn hops_to_cover(n: usize, fanout: usize) -> u32 {
        let n = n.max(2) as f64;
        let f = (fanout.max(2)) as f64;
        (n.ln() / f.ln()).ceil() as u32 + 2
    }

    /// Returns a copy of the configuration with anti-entropy disabled
    /// (the configuration evaluated in the paper).
    #[must_use]
    pub fn without_anti_entropy(mut self) -> Self {
        self.replication.anti_entropy_enabled = false;
        self
    }

    /// Returns a copy of the configuration with a different slice count.
    #[must_use]
    pub fn with_slice_count(mut self, slice_count: u32) -> Self {
        self.slicing.slice_count = slice_count;
        self
    }

    /// Returns a copy of the configuration with a different number of
    /// data-store key-range shards (`1` or `0` disables sharding).
    #[must_use]
    pub fn with_store_shards(mut self, store_shards: u32) -> Self {
        self.store_shards = store_shards;
        self
    }

    /// The number of store shards to materialise: the configured knob,
    /// clamped to at least one shard.
    #[must_use]
    pub fn effective_store_shards(&self) -> u32 {
        self.store_shards.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = NodeConfig::default();
        assert!(cfg.pss.view_size >= cfg.pss.shuffle_length);
        assert!(cfg.slicing.slice_count > 0);
        assert!(cfg.dissemination.global_fanout > 0);
        assert!(cfg.replication.anti_entropy_enabled);
    }

    #[test]
    fn view_size_follows_ln_n_plus_c() {
        assert_eq!(PssConfig::view_size_for(1000, 3), 10);
        assert!(PssConfig::view_size_for(3000, 3) >= PssConfig::view_size_for(500, 3));
    }

    #[test]
    fn derived_config_scales_with_system_size() {
        let small = NodeConfig::for_system_size(500, 10);
        let large = NodeConfig::for_system_size(3000, 10);
        assert!(large.pss.view_size >= small.pss.view_size);
        assert!(large.dissemination.global_fanout >= small.dissemination.global_fanout);
        assert_eq!(small.slicing.slice_count, 10);
        assert_eq!(large.slicing.slice_count, 10);
    }

    #[test]
    fn hops_to_cover_grows_with_n_and_shrinks_with_fanout() {
        assert!(NodeConfig::hops_to_cover(3000, 8) >= NodeConfig::hops_to_cover(500, 8));
        assert!(NodeConfig::hops_to_cover(3000, 4) >= NodeConfig::hops_to_cover(3000, 16));
        assert!(NodeConfig::hops_to_cover(2, 2) >= 3);
    }

    #[test]
    fn builder_style_modifiers() {
        let cfg = NodeConfig::for_system_size(1000, 10)
            .without_anti_entropy()
            .with_slice_count(25);
        assert!(!cfg.replication.anti_entropy_enabled);
        assert_eq!(cfg.slicing.slice_count, 25);
    }

    #[test]
    fn store_shards_knob_defaults_and_clamps() {
        let cfg = NodeConfig::default();
        assert_eq!(cfg.store_shards, DEFAULT_STORE_SHARDS);
        assert_eq!(cfg.with_store_shards(0).effective_store_shards(), 1);
        assert_eq!(cfg.with_store_shards(16).effective_store_shards(), 16);
        assert_eq!(
            NodeConfig::for_system_size(100, 4).store_shards,
            DEFAULT_STORE_SHARDS
        );
    }

    #[test]
    fn intra_parameters_track_slice_size() {
        let few_slices = NodeConfig::for_system_size(3000, 10); // slice size 300
        let many_slices = NodeConfig::for_system_size(3000, 60); // slice size 50
        assert!(few_slices.pss.intra_view_size >= many_slices.pss.intra_view_size);
        assert!(few_slices.dissemination.intra_ttl >= many_slices.dissemination.intra_ttl);
    }
}
