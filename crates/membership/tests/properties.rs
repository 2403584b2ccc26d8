//! Property-based tests for the membership substrate.

use std::collections::HashSet;

use dataflasks_membership::{analysis, CyclonProtocol, NodeDescriptor, PartialView};
use dataflasks_types::{NodeId, NodeProfile, PssConfig, SliceId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn descriptor(id: u64, age: u32) -> NodeDescriptor {
    NodeDescriptor::new(NodeId::new(id), NodeProfile::default()).with_age(age)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A partial view never exceeds its capacity, never contains the owner
    /// and never holds two descriptors for the same node, regardless of the
    /// insert sequence.
    #[test]
    fn view_invariants_hold_for_any_insert_sequence(
        capacity in 1usize..16,
        inserts in proptest::collection::vec((0u64..32, 0u32..20), 0..128),
    ) {
        let owner = NodeId::new(0);
        let mut view = PartialView::new(owner, capacity);
        for (id, age) in inserts {
            view.insert(descriptor(id, age));
            prop_assert!(view.len() <= capacity);
            prop_assert!(!view.contains(owner));
            let ids: Vec<_> = view.peer_ids();
            let unique: HashSet<_> = ids.iter().collect();
            prop_assert_eq!(ids.len(), unique.len());
        }
    }

    /// Merging shuffles preserves the same invariants.
    #[test]
    fn merge_shuffle_preserves_invariants(
        capacity in 2usize..12,
        initial in proptest::collection::vec((1u64..32, 0u32..10), 0..12),
        received in proptest::collection::vec((0u64..32, 0u32..10), 0..12),
        seed in any::<u64>(),
    ) {
        let owner = NodeId::new(0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut view = PartialView::new(owner, capacity);
        for (id, age) in initial {
            view.insert(descriptor(id, age));
        }
        let sent = view.take_random(3, &mut rng);
        let received: Vec<_> = received.into_iter().map(|(id, age)| descriptor(id, age)).collect();
        view.merge_shuffle(received, &sent);
        prop_assert!(view.len() <= capacity);
        prop_assert!(!view.contains(owner));
        let ids = view.peer_ids();
        let unique: HashSet<_> = ids.iter().collect();
        prop_assert_eq!(ids.len(), unique.len());
    }

    /// After any number of Cyclon rounds over a randomly bootstrapped system,
    /// every view respects its bound, excludes its owner, and the overlay
    /// remains connected from node 0.
    #[test]
    fn cyclon_rounds_preserve_invariants(
        nodes in 4u64..24,
        rounds in 1usize..12,
        seed in any::<u64>(),
    ) {
        let cfg = PssConfig { view_size: 6, shuffle_length: 4, ..PssConfig::default() };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut protocols: Vec<CyclonProtocol> = (0..nodes)
            .map(|i| {
                let mut p = CyclonProtocol::new(NodeId::new(i), cfg);
                p.bootstrap([descriptor((i + 1) % nodes, 0)]);
                p
            })
            .collect();
        for _ in 0..rounds {
            for i in 0..protocols.len() {
                if let Some((target, request)) = protocols[i].initiate_shuffle(&mut rng) {
                    let from = protocols[i].local_id();
                    let response =
                        protocols[target.as_u64() as usize].handle_request(from, request, &mut rng);
                    protocols[i].handle_response(response);
                }
            }
        }
        let views: Vec<PartialView> = protocols.iter().map(|p| p.view().clone()).collect();
        for (i, view) in views.iter().enumerate() {
            prop_assert!(view.len() <= cfg.view_size);
            prop_assert!(!view.contains(NodeId::new(i as u64)));
            prop_assert!(!view.is_empty());
        }
        prop_assert_eq!(analysis::reachable_from(&views, NodeId::new(0)), nodes as usize);
    }

    /// Advertised slices survive the shuffle path: a descriptor carrying a
    /// slice keeps it when inserted into other views.
    #[test]
    fn slices_survive_view_insertion(slice in 0u32..64, id in 1u64..100) {
        let mut view = PartialView::new(NodeId::new(0), 8);
        let d = NodeDescriptor::new(NodeId::new(id), NodeProfile::default())
            .with_slice(Some(SliceId::new(slice)));
        view.insert(d);
        prop_assert_eq!(view.get(NodeId::new(id)).unwrap().slice(), Some(SliceId::new(slice)));
    }
}
