//! Integration test: the structured DHT baseline against DataFlasks under a
//! correlated failure — the dependability argument of the paper's
//! introduction.

use dataflasks::baseline::DhtCluster;
use dataflasks::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

#[test]
fn dht_baseline_stores_and_serves_objects() {
    let mut dht = DhtCluster::new(30, 3);
    let keys: Vec<Key> = (0..50)
        .map(|i| Key::from_user_key(&format!("dht-{i}")))
        .collect();
    for (i, &key) in keys.iter().enumerate() {
        let written = dht.put(key, Version::new(1), Value::filled(32, i as u8));
        assert_eq!(written, 3);
    }
    for &key in &keys {
        assert!(dht.get(key).is_some());
    }
    assert_eq!(dht.stats().puts, 50);
    assert_eq!(dht.stats().gets_hit, 50);
}

#[test]
fn correlated_failure_hurts_the_dht_more_than_dataflasks() {
    let nodes = 60;
    let objects = 40;
    let crash = 20; // a third of the system

    // --- DataFlasks: slice-wide replication in a 3-slice system.
    let config = NodeConfig::for_system_size(nodes, 3);
    let mut sim = Simulation::new(SimConfig::default());
    sim.spawn_cluster(nodes, config);
    sim.run_for(Duration::from_secs(60));
    let client = sim.add_client();
    let keys: Vec<Key> = (0..objects)
        .map(|i| Key::from_user_key(&format!("cmp-{i}")))
        .collect();
    let mut at = sim.now();
    for &key in &keys {
        at += Duration::from_millis(100);
        sim.schedule_put(at, client, key, Version::new(1), Value::filled(32, 9));
    }
    sim.run_until(at + Duration::from_secs(20));
    let start = sim.now();
    sim.schedule_churn(start, start + Duration::from_secs(10), crash, 0);
    sim.run_until(start + Duration::from_secs(60));
    let df_available = keys
        .iter()
        .filter(|&&k| sim.replication_factor(k) > 0)
        .count();
    let df_availability = df_available as f64 / keys.len() as f64;

    // --- DHT baseline with replication factor 3 and no repair.
    let mut dht = DhtCluster::new(nodes, 3);
    for &key in &keys {
        dht.put(key, Version::new(1), Value::filled(32, 9));
    }
    let mut rng = StdRng::seed_from_u64(3);
    let mut victims = dht.alive_nodes();
    victims.shuffle(&mut rng);
    for victim in victims.into_iter().take(crash) {
        dht.crash(victim);
    }
    let dht_availability = dht.availability(&keys);

    // DataFlasks replicates on a whole slice (~20 nodes), so losing a third
    // of the cluster leaves every object with replicas; the DHT replicates on
    // 3 nodes, so some objects can lose all of them.
    assert!(
        df_availability >= dht_availability,
        "DataFlasks ({df_availability}) should not be less available than the DHT ({dht_availability})"
    );
    assert!(
        df_availability >= 0.95,
        "DataFlasks availability unexpectedly low: {df_availability}"
    );
}

#[test]
fn dht_repair_restores_replication_but_needs_explicit_rebalancing() {
    let mut dht = DhtCluster::new(40, 3);
    let keys: Vec<Key> = (0..60)
        .map(|i| Key::from_user_key(&format!("repair-{i}")))
        .collect();
    for &key in &keys {
        dht.put(key, Version::new(1), Value::filled(16, 1));
    }
    // Crash a node and verify degradation, then repair.
    let victim = dht.alive_nodes()[0];
    dht.crash(victim);
    let degraded = keys.iter().filter(|&&k| dht.replication_of(k) < 3).count();
    let transferred = dht.rebalance();
    if degraded > 0 {
        assert!(transferred > 0, "rebalance should transfer data");
    }
    for &key in &keys {
        assert_eq!(dht.replication_of(key), 3);
    }
    assert!(dht.stats().rebalance_messages >= transferred as u64);
}
