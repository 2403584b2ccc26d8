//! Integration test: the simulator is a deterministic function of its seed.
//!
//! Reproducibility is what makes simulation experiments (and bug reports
//! against them) trustworthy: the same seed must produce the same virtual
//! history — every reply, every latency, every per-node traffic counter —
//! byte for byte. This guards the property through the hot-path machinery
//! (timer wheel, slab addressing, buffer recycling, fast hashing), none of
//! which is allowed to let wall-clock scheduling or map iteration order
//! leak into protocol behaviour.

use dataflasks::prelude::*;

/// A figure-3-style scripted scenario: grow a cluster, write under load,
/// crash and join nodes mid-workload, read everything back. Returns the
/// full observable history formatted as text: the completed-operation log
/// (order, outcome, latency) and the per-node traffic statistics.
fn scripted_run(seed: u64) -> (String, String) {
    let nodes = 100;
    let slices = 5;
    let config = NodeConfig::for_system_size(nodes, slices);
    let mut sim = Simulation::new(SimConfig {
        seed,
        ..SimConfig::default()
    });
    sim.spawn_cluster(nodes, config);
    sim.run_for(Duration::from_secs(60));

    let client = sim.add_client();
    let keys: Vec<Key> = (0..40)
        .map(|i| Key::from_user_key(&format!("det-{i}")))
        .collect();
    let mut at = sim.now();
    for (i, &key) in keys.iter().enumerate() {
        at += Duration::from_millis(150);
        sim.schedule_put(at, client, key, Version::new(1), Value::filled(48, i as u8));
    }
    // Churn through the middle of the workload.
    let churn_start = sim.now() + Duration::from_secs(2);
    sim.schedule_churn(churn_start, churn_start + Duration::from_secs(20), 10, 10);
    sim.run_until(at + Duration::from_secs(15));

    let mut at = sim.now();
    for &key in &keys {
        at += Duration::from_millis(150);
        sim.schedule_get(at, client, key, None);
    }
    sim.run_until(at + Duration::from_secs(15));

    (
        format!("{:?}", sim.completed_operations()),
        format!("{:?}", sim.node_stats()),
    )
}

/// Twenty gets of keys nobody wrote, all expiring in the same `run_until`:
/// the client library reports them together, so the log's order is only
/// reproducible if expiry does not follow hash-map iteration order.
fn expiring_gets_run(seed: u64) -> (String, String) {
    let nodes = 16;
    let mut sim = Simulation::new(SimConfig {
        seed,
        ..SimConfig::default()
    });
    sim.spawn_cluster(nodes, NodeConfig::for_system_size(nodes, 2));
    let client = sim.add_client();
    for i in 0..20 {
        sim.submit_get(client, Key::from_user_key(&format!("absent-{i}")), None);
    }
    sim.run_for(Duration::from_secs(40));
    (
        format!("{:?}", sim.completed_operations()),
        format!("{:?}", sim.node_stats()),
    )
}

/// Runs a scenario twice and asserts both histories match and are
/// non-trivial.
fn assert_reproducible(scenario: &str, run: impl Fn() -> (String, String)) {
    let (ops_a, stats_a) = run();
    let (ops_b, stats_b) = run();
    assert!(
        ops_a == ops_b,
        "{scenario}: completed-operation logs diverged between two runs of the same seed"
    );
    assert!(
        stats_a == stats_b,
        "{scenario}: node statistics diverged between two runs of the same seed"
    );
    // The log must be non-trivial for the comparison to mean anything.
    assert!(
        ops_a.len() > 100,
        "{scenario}: suspiciously empty operation log: {ops_a}"
    );
}

#[test]
fn same_seed_reproduces_the_run_byte_for_byte() {
    assert_reproducible("scripted churn", || scripted_run(0xF163));
    assert_reproducible("expiring gets", || expiring_gets_run(7));
}

#[test]
fn different_seeds_produce_different_histories() {
    let (ops_a, stats_a) = scripted_run(1);
    let (ops_b, stats_b) = scripted_run(2);
    assert!(
        ops_a != ops_b || stats_a != stats_b,
        "two different seeds produced identical histories"
    );
}

/// A fixed-count pin of the simulated message flow at tier-1 size: 1 000
/// nodes in five ~200-node slices, 1 % crash and 1 % join churn over 20 s
/// with 100 puts riding on it, then 100 gets of the same keys, at a fixed
/// seed. The full-size `sim_churn_10k` benchmark run pins the same shape at
/// 10 000 nodes, but only a release build of the benchmark checks it; this
/// test catches a change to what nodes emit, or to the order of their
/// random draws, in `cargo test`.
///
/// The expected values are exact. A change that keeps the protocol's
/// decisions and RNG calls must leave them alone; ROADMAP item 1 (a stable
/// slice estimator) changes the flow on purpose and is expected to re-pin
/// them.
#[test]
fn churned_thousand_node_run_matches_its_pinned_counts() {
    let nodes = 1_000;
    let mut config = NodeConfig::for_system_size(nodes, 5);
    config.dissemination.global_fanout = 4;
    let mut sim = Simulation::new(SimConfig {
        seed: 0x5EED_1000,
        client_timeout: Duration::from_secs(5),
    });
    sim.spawn_cluster(nodes, config);
    sim.run_for(Duration::from_secs(20));

    let start = sim.now();
    sim.schedule_churn(start, start + Duration::from_secs(20), 10, 10);
    let client = sim.add_client();
    let key = |i: u64| Key::from_user_key(&format!("pin-{i}"));
    for i in 0..100 {
        let at = start + Duration::from_millis(i * 200);
        sim.schedule_put(at, client, key(i), Version::new(1), Value::filled(64, 7));
        sim.schedule_get(at + Duration::from_secs(15), client, key(i), None);
    }
    sim.run_until(start + Duration::from_secs(45));

    let stats = sim.client(client).expect("the client exists").stats();
    let request_messages: u64 = sim
        .node_stats()
        .iter()
        .map(|s| s.sent(MessageKind::Request))
        .sum();
    let observed = (
        sim.events_dispatched(),
        stats.puts_acked,
        stats.gets_hit,
        request_messages,
    );
    assert_eq!(observed, (733_093, 100, 100, 263_638));
}
