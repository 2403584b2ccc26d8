//! Extension experiment — slicing accuracy and resilience to correlated
//! failures (paper §IV-A).
//!
//! Runs the ordered rank-estimation slicer gossip over a population of nodes,
//! measures how quickly the assignment converges to the ideal (global
//! knowledge) assignment, then wipes out most of one slice and measures how
//! far the survivors repopulate it.
//!
//! Run with `cargo run -p dataflasks-bench --release --bin slicing_convergence`.

use std::collections::HashMap;

use dataflasks::prelude::*;
use dataflasks::slicing::{expected_slice_assignment, slice_accuracy, slice_size_imbalance};
use dataflasks::types::SlicingConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let nodes = parse_arg(1, 500);
    let slices = parse_arg(2, 10) as u32;
    let rounds = 60usize;
    println!("# Slicing convergence: {nodes} nodes, {slices} slices, {rounds} gossip rounds");
    println!("round,accuracy,imbalance");

    let mut rng = StdRng::seed_from_u64(42);
    let partition = SlicePartition::new(slices);
    let profiles: Vec<(NodeId, NodeProfile)> = (0..nodes as u64)
        .map(|i| {
            (
                NodeId::new(i),
                NodeProfile::with_capacity_and_tie_break(rng.gen_range(100..10_000), i),
            )
        })
        .collect();
    let ideal = expected_slice_assignment(&profiles, partition);
    let mut slicers: Vec<OrderedSlicer> = profiles
        .iter()
        .map(|&(id, profile)| OrderedSlicer::new(id, profile, SlicingConfig::default(), partition))
        .collect();

    let mut final_accuracy = 0.0;
    for round in 1..=rounds {
        gossip_round(&mut slicers, &mut rng);
        let actual = assignment_of(&slicers);
        let accuracy = slice_accuracy(&ideal, &actual);
        let imbalance = slice_size_imbalance(&actual, partition);
        final_accuracy = accuracy;
        if round % 5 == 0 || round == 1 {
            println!("{round},{accuracy:.3},{imbalance:.2}");
        }
    }

    // Correlated failure: remove 80% of the members of slice 0, then measure
    // how the ordered slicer repopulates it.
    let assignment = assignment_of(&slicers);
    let mut slice0_members: Vec<NodeId> = assignment
        .iter()
        .filter(|(_, s)| s.index() == 0)
        .map(|(&id, _)| id)
        .collect();
    slice0_members.sort();
    let to_kill: Vec<NodeId> = slice0_members
        .iter()
        .copied()
        .take(slice0_members.len() * 8 / 10)
        .collect();
    println!(
        "# correlated failure: killing {} of {} members of slice 0",
        to_kill.len(),
        slice0_members.len()
    );

    let survivors: Vec<usize> = profiles
        .iter()
        .enumerate()
        .filter(|(_, (id, _))| !to_kill.contains(id))
        .map(|(i, _)| i)
        .collect();
    // Ordered slicer: survivors keep gossiping; departed nodes' samples expire
    // and the ranks rebalance.
    let mut surviving_slicers: Vec<OrderedSlicer> =
        survivors.iter().map(|&i| slicers[i].clone()).collect();
    for slicer in &mut surviving_slicers {
        for dead in &to_kill {
            slicer.purge(*dead);
        }
    }
    for _ in 0..40 {
        gossip_round(&mut surviving_slicers, &mut rng);
    }
    let ordered_assignment = assignment_of(&surviving_slicers);
    let ordered_slice0 = ordered_assignment
        .values()
        .filter(|s| s.index() == 0)
        .count();
    let expected_per_slice = survivors.len() / slices as usize;

    println!("slicer,slice0_population_after_failure,expected_per_slice");
    println!("ordered,{ordered_slice0},{expected_per_slice}");
    println!("# converged accuracy before failure: {final_accuracy:.3}");
}

fn gossip_round(slicers: &mut [OrderedSlicer], rng: &mut StdRng) {
    let count = slicers.len();
    for i in 0..count {
        slicers[i].advance_round();
        let peer = loop {
            let p = rng.gen_range(0..count);
            if p != i {
                break p;
            }
        };
        let request = slicers[i].create_exchange(rng);
        let reply = slicers[peer].handle_exchange(request, rng);
        slicers[i].handle_reply(reply);
    }
}

fn assignment_of(slicers: &[OrderedSlicer]) -> HashMap<NodeId, SliceId> {
    slicers
        .iter()
        .filter_map(|s| s.current_slice().map(|slice| (s.node(), slice)))
        .collect()
}

fn parse_arg(index: usize, default: usize) -> usize {
    std::env::args()
        .nth(index)
        .and_then(|arg| arg.parse().ok())
        .unwrap_or(default)
}
