//! Property-based tests for the slicing protocols.

use std::collections::HashMap;

use dataflasks_slicing::{
    expected_slice_assignment, slice_accuracy, slice_size_imbalance, OrderedSlicer,
};
use dataflasks_types::{NodeId, NodeProfile, SlicePartition, SlicingConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the slicer observes, its assignment stays within the
    /// configured partition.
    #[test]
    fn ordered_slicer_assignment_is_always_valid(
        k in 1u32..64,
        capacity in 1u64..1_000_000,
        observations in proptest::collection::vec((1u64..500, 1u64..1_000_000), 0..64),
    ) {
        let mut slicer = OrderedSlicer::new(
            NodeId::new(0),
            NodeProfile::with_capacity(capacity),
            SlicingConfig::default(),
            SlicePartition::new(k),
        );
        for (node, cap) in observations {
            slicer.observe(NodeId::new(node), NodeProfile::with_capacity(cap));
            let slice = slicer.current_slice().unwrap();
            prop_assert!(slice.index() < k);
            let rank = slicer.estimated_rank();
            prop_assert!((0.0..1.0).contains(&rank));
        }
    }

    /// The sample buffer never exceeds its configured bound.
    #[test]
    fn sample_buffer_is_bounded(
        buffer in 1usize..64,
        observations in proptest::collection::vec((1u64..10_000, 1u64..1_000), 0..256),
    ) {
        let cfg = SlicingConfig { sample_buffer_size: buffer, ..SlicingConfig::default() };
        let mut slicer = OrderedSlicer::new(
            NodeId::new(0),
            NodeProfile::with_capacity(1),
            cfg,
            SlicePartition::new(4),
        );
        for (node, cap) in observations {
            slicer.observe(NodeId::new(node), NodeProfile::with_capacity(cap));
            prop_assert!(slicer.sample_count() <= buffer);
        }
    }

    /// The ideal assignment is monotone in the attribute: a node with a
    /// larger capacity never lands in a lower slice than a node with a
    /// smaller capacity.
    #[test]
    fn expected_assignment_is_monotone(
        capacities in proptest::collection::vec(1u64..1_000_000, 2..128),
        k in 1u32..32,
    ) {
        let nodes: Vec<(NodeId, NodeProfile)> = capacities
            .iter()
            .enumerate()
            .map(|(i, &c)| (NodeId::new(i as u64), NodeProfile::with_capacity(c)))
            .collect();
        let partition = SlicePartition::new(k);
        let ideal = expected_slice_assignment(&nodes, partition);
        for (a, pa) in &nodes {
            for (b, pb) in &nodes {
                if pa.capacity() < pb.capacity() {
                    prop_assert!(ideal[a] <= ideal[b]);
                }
            }
        }
        // And it is as balanced as integer division allows.
        let imbalance = slice_size_imbalance(&ideal, partition);
        prop_assert!(imbalance.is_finite() || nodes.len() < k as usize);
    }

    /// Accuracy is 1 against itself and in [0, 1] against any other
    /// assignment.
    #[test]
    fn accuracy_bounds(
        capacities in proptest::collection::vec(1u64..1_000, 1..64),
        k in 1u32..16,
        perturb in any::<u64>(),
    ) {
        let nodes: Vec<(NodeId, NodeProfile)> = capacities
            .iter()
            .enumerate()
            .map(|(i, &c)| (NodeId::new(i as u64), NodeProfile::with_capacity(c)))
            .collect();
        let partition = SlicePartition::new(k);
        let ideal = expected_slice_assignment(&nodes, partition);
        prop_assert_eq!(slice_accuracy(&ideal, &ideal), 1.0);
        let mut perturbed: HashMap<_, _> = ideal.clone();
        if let Some((&node, _)) = ideal.iter().next() {
            perturbed.insert(node, dataflasks_types::SliceId::new((perturb % u64::from(k)) as u32));
        }
        let acc = slice_accuracy(&ideal, &perturbed);
        prop_assert!((0.0..=1.0).contains(&acc));
    }

    /// Push-pull exchanges never lose the participants' own samples and keep
    /// both buffers bounded.
    #[test]
    fn exchange_roundtrip_preserves_invariants(
        cap_a in 1u64..1_000,
        cap_b in 1u64..1_000,
        seed in any::<u64>(),
    ) {
        let cfg = SlicingConfig::default();
        let partition = SlicePartition::new(8);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = OrderedSlicer::new(NodeId::new(1), NodeProfile::with_capacity(cap_a), cfg, partition);
        let mut b = OrderedSlicer::new(NodeId::new(2), NodeProfile::with_capacity(cap_b), cfg, partition);
        let request = a.create_exchange(&mut rng);
        prop_assert_eq!(request.samples[0].node(), NodeId::new(1));
        let reply = b.handle_exchange(request, &mut rng);
        a.handle_reply(reply);
        prop_assert!(a.sample_count() <= cfg.sample_buffer_size);
        prop_assert!(b.sample_count() <= cfg.sample_buffer_size);
        prop_assert!(b.sample_count() >= 1);
        prop_assert!(a.sample_count() >= 1);
    }
}
