//! Robustness benchmark: seeded nemesis schedules against the simulator
//! and the socket runtime, audited by the cross-backend
//! [`InvariantChecker`] — the artifact proves the cluster *survives* the
//! paper's headline regime (churn storms plus partitions), not that it is
//! fast under it.
//!
//! Rows of `BENCH_nemesis.json`:
//!
//! * `sim_replay` — the churn-and-partition scenario run **twice** with the
//!   same seed on a 1000-node simulation; the row is only emitted after the
//!   two traces (per-node stats and simulator counters) compare equal
//!   (`replayed_identically = 1`).
//! * `sim_churn_partition` — the acceptance scenario: a 10000-node
//!   simulation through churn storms and a split-brain partition, with a
//!   client workload riding the fault span. Reports availability under
//!   fault, anti-entropy rounds to convergence after the final heal, and
//!   the injected-fault counters.
//! * `socket_faults` — a loopback socket cluster (220 nodes tracked, 60 in
//!   `--smoke`) through a partition + loss + duplication window, a
//!   post-heal convergence probe, and one-at-a-time frame corruption that
//!   must surface as exactly one `wire_rejects` each.
//!
//! Every row carries `invariant_violations`, which must be zero — the bin
//! prints the checker report, still writes the artifact, and exits nonzero
//! otherwise (as it does when a planned row is missing).
//!
//! ```bash
//! cargo run -p dataflasks-bench --release --bin nemesis_bench
//! # CI smoke: the 10k sim acceptance row plus a 60-node socket row
//! cargo run -p dataflasks-bench --release --bin nemesis_bench -- --smoke
//! ```

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use dataflasks::core::{ClientRequest, Environment, OperationOutcome, ReplyBody};
use dataflasks::prelude::*;
use dataflasks::store::DataStore;
use dataflasks_bench::{await_completions, publish, Row, NEMESIS_RULES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0xD7_5EED;
const CLIENT: u64 = 7;

/// Everything one scenario reports; rendered into one artifact row.
struct RowMetrics {
    scenario: &'static str,
    nodes: usize,
    acked_puts: u64,
    /// Fraction of the client operations *submitted while faults were
    /// active* that completed successfully (acked puts and hit gets).
    availability_under_fault: f64,
    /// Anti-entropy rounds from the final heal to convergence
    /// (`budget + 1` when the budget was exhausted — which also records a
    /// bounded-convergence violation).
    convergence_rounds: usize,
    rounds_budget: usize,
    invariant_checks: u64,
    invariant_violations: usize,
    frames_dropped_injected: u64,
    frames_duplicated_injected: u64,
    partition_refusals: u64,
    corrupt_injected: u64,
    wire_rejects: u64,
    replayed_identically: u64,
    wall_ms: u64,
    report: String,
}

impl RowMetrics {
    fn render(&self) -> Row {
        vec![
            ("scenario", self.scenario.into()),
            ("nodes", self.nodes.into()),
            ("acked_puts", self.acked_puts.into()),
            (
                "availability_under_fault",
                self.availability_under_fault.into(),
            ),
            ("convergence_rounds", self.convergence_rounds.into()),
            ("rounds_budget", self.rounds_budget.into()),
            ("invariant_checks", self.invariant_checks.into()),
            ("invariant_violations", self.invariant_violations.into()),
            (
                "frames_dropped_injected",
                self.frames_dropped_injected.into(),
            ),
            (
                "frames_duplicated_injected",
                self.frames_duplicated_injected.into(),
            ),
            ("partition_refusals", self.partition_refusals.into()),
            ("corrupt_injected", self.corrupt_injected.into()),
            ("wire_rejects", self.wire_rejects.into()),
            ("replayed_identically", self.replayed_identically.into()),
            ("wall_ms", self.wall_ms.into()),
        ]
    }

    fn print(&self) {
        for (name, value) in self.render() {
            println!("[{} {} nodes] {name}: {value}", self.scenario, self.nodes);
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut args = std::env::args();
    let mut sim_nodes = 10_000usize;
    let mut skip_socket = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--sim-nodes" => {
                sim_nodes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--sim-nodes needs a count");
            }
            "--no-socket" => skip_socket = true,
            _ => {}
        }
    }
    let start = Instant::now();
    // The planned rows, as `(scenario, nodes)`.
    let mut plan: Vec<(&'static str, usize)> = Vec::new();
    if !smoke {
        plan.push(("sim_replay", 1_000));
    }
    plan.push(("sim_churn_partition", sim_nodes));
    if !skip_socket {
        plan.push(("socket_faults", if smoke { 60 } else { 220 }));
    }
    let rows: Vec<RowMetrics> = plan
        .iter()
        .map(|&(scenario, nodes)| match scenario {
            "socket_faults" => run_socket_scenario(nodes, SEED),
            _ => run_sim_scenario(scenario, nodes, SEED, scenario == "sim_replay"),
        })
        .collect();

    for row in &rows {
        row.print();
        if row.invariant_violations > 0 {
            eprintln!(
                "--- {} ({} nodes) ---\n{}",
                row.scenario, row.nodes, row.report
            );
        }
    }
    println!(
        "{} rows in {:.1}s",
        rows.len(),
        start.elapsed().as_secs_f64()
    );
    let requested: Vec<Row> = plan
        .iter()
        .map(|&(scenario, nodes)| vec![("scenario", scenario.into()), ("nodes", nodes.into())])
        .collect();
    publish(
        "BENCH_nemesis.json",
        &[
            ("seed", SEED.to_string()),
            ("sim_scenario", "\"churn_and_partition\"".to_string()),
            (
                "socket_scenario",
                "\"partition_loss_duplicate_corrupt\"".to_string(),
            ),
            ("smoke", smoke.to_string()),
        ],
        &rows.iter().map(RowMetrics::render).collect::<Vec<_>>(),
        NEMESIS_RULES,
        &requested,
    );
}

// ---------------------------------------------------------------------------
// Simulator scenario
// ---------------------------------------------------------------------------

/// The full observable trace of a simulator run; two same-seed runs must
/// compare equal for the replay row.
type SimTrace = (Vec<NodeStats>, u64, u64, u64, usize);

/// The acceptance scenario on the simulator: load objects, run the
/// churn-and-partition nemesis schedule (holds compressed so a bench run
/// stays minutes, the fault mix untouched) with a get workload riding the
/// fault span, then audit convergence, replication bounds and durability.
fn run_sim_scenario(scenario: &'static str, nodes: usize, seed: u64, replay: bool) -> RowMetrics {
    let start = Instant::now();
    let (mut metrics, first) = run_sim_once(scenario, nodes, seed);
    if replay {
        let (_, second) = run_sim_once(scenario, nodes, seed);
        assert_eq!(
            first, second,
            "same seed, same schedule — the sim trace must replay byte-identically"
        );
        metrics.replayed_identically = 1;
    }
    metrics.wall_ms = start.elapsed().as_millis() as u64;
    metrics
}

fn run_sim_once(scenario: &'static str, nodes: usize, seed: u64) -> (RowMetrics, SimTrace) {
    // Wide slices (~500 nodes, 5% of the rank space each): a churn storm
    // shifts every survivor's quantised rank estimate, and with narrow
    // slices that drift marches whole replica populations across slice
    // borders — the slice-census invariants below are only *true* system
    // properties while the drift stays well inside one slice width.
    let slices = (nodes as u32 / 500).max(2);
    let config = NodeConfig::for_system_size(nodes, slices);
    let key_partition = SlicePartition::new(slices);
    let mut nemesis = NemesisSpec::churn_and_partition(nodes);
    // WAN-scale holds compressed to bench scale; rates and groups as preset.
    nemesis.warmup = Duration::from_secs(10);
    nemesis.phase_gap = Duration::from_secs(20);
    nemesis.partition_hold = Duration::from_secs(15);
    nemesis.churn_hold = Duration::from_secs(10);
    let schedule = NemesisSchedule::generate(&nemesis, seed);

    let mut sim = Simulation::new(SimConfig {
        seed,
        client_timeout: Duration::from_secs(10),
    });
    sim.spawn_cluster(nodes, config);
    sim.run_for(Duration::from_secs(30)); // let slicing settle

    // --- Load phase: the objects whose fate the invariants audit ---------
    let client = sim.add_client();
    let object_count = (nodes / 50).clamp(50, 200);
    let keys: Vec<(Key, String)> = (0..object_count)
        .map(|i| {
            let name = format!("nemesis-{i}");
            (Key::from_user_key(&name), name)
        })
        .collect();
    let mut at = sim.now();
    for (key, _) in &keys {
        at += Duration::from_millis(50);
        sim.schedule_put(at, client, *key, Version::new(1), Value::filled(64, 5));
    }
    // Let anti-entropy replicate the loaded objects to steady state before
    // the nemesis starts: the durability invariant audits a cluster that
    // was healthy when it acked, not one hit mid-load.
    sim.run_until(at + Duration::from_secs(30));
    let acked: HashSet<Key> = sim
        .completed_operations()
        .iter()
        .filter(|op| matches!(op.outcome, OperationOutcome::PutAcked { .. }))
        .map(|op| op.key)
        .collect();
    let acked_puts = acked.len() as u64;

    // Pre-fault slice census: the durability invariant compares post-fault
    // alive populations against it to decide whether a majority survived.
    let pop_before: HashMap<u32, usize> = sim
        .slice_populations()
        .into_iter()
        .map(|(slice, count)| (slice.index(), count))
        .collect();

    // --- Fault span: the schedule runs, a get workload rides it ----------
    let origin = sim.now();
    let fault_ops_start = sim.completed_operations().len();
    let span = schedule.span();
    let mut t = Duration::from_millis(500);
    let mut op_index = 0usize;
    while t < span {
        sim.schedule_get(origin + t, client, keys[op_index % keys.len()].0, None);
        op_index += 1;
        t = t + Duration::from_millis(500);
    }
    for event in schedule.events() {
        sim.run_until(origin + event.at);
        sim.apply_nemesis_op(&event.op);
    }
    sim.run_until(origin + span);
    // Let in-flight operations complete or expire before judging them.
    sim.run_for(Duration::from_secs(12));
    let fault_ops = &sim.completed_operations()[fault_ops_start..];
    let successes = fault_ops
        .iter()
        .filter(|op| {
            matches!(
                op.outcome,
                OperationOutcome::PutAcked { .. } | OperationOutcome::GetHit { .. }
            )
        })
        .count();
    let availability = successes as f64 / fault_ops.len().max(1) as f64;

    // --- Post-heal convergence, in anti-entropy rounds --------------------
    // The budget mirrors the store's chunked anti-entropy: each round walks
    // one chunk per peer exchange, so a few sweeps over every chunk (plus
    // slack for gossip to re-mesh the healed sides) must suffice.
    let budget = 4 * config.effective_store_shards() as usize + 8;
    let ae_period = config.replication.anti_entropy_period;
    let census = |sim: &Simulation| -> (HashMap<u32, Vec<NodeId>>, usize) {
        let mut members: HashMap<u32, Vec<NodeId>> = HashMap::new();
        for (id, slice) in sim.slice_assignment() {
            members.entry(slice.index()).or_default().push(id);
        }
        let mass = acked
            .iter()
            .map(|key| slice_replicas(sim, &members, key_partition, *key))
            .sum();
        (members, mass)
    };
    let (_, mut prev_mass) = census(&sim);
    let mut rounds_used = None;
    for round in 1..=budget {
        sim.run_for(ae_period);
        let (members, mass) = census(&sim);
        let full = acked
            .iter()
            .all(|key| slice_replicas(&sim, &members, key_partition, *key) > 0);
        // Converged: every acked key is back and the replication mass has
        // plateaued. The plateau is tolerant (1%) because rank-estimate
        // jitter keeps a handful of nodes drifting across slice borders
        // even at steady state, and the last few anti-entropy acquisitions
        // trickle in one node at a time.
        let plateau = mass.abs_diff(prev_mass) <= prev_mass / 100;
        if full && plateau {
            rounds_used = Some(round);
            break;
        }
        prev_mass = mass;
    }

    // --- Invariants --------------------------------------------------------
    let mut checker = InvariantChecker::new();
    checker.check_convergence(scenario, rounds_used, budget);
    let (members, _) = census(&sim);
    for (key, name) in &keys {
        if !acked.contains(key) {
            continue;
        }
        let slice = key_partition.slice_of(*key).index();
        let alive_pop = members.get(&slice).map_or(0, Vec::len);
        let replicas = slice_replicas(&sim, &members, key_partition, *key);
        if replicas == 0 && std::env::var_os("NEMESIS_BENCH_DEBUG").is_some() {
            eprintln!(
                "DEBUG {name}: slice {slice} census 0, global alive holders {}",
                sim.replication_factor(*key)
            );
        }
        checker.check_replication_bounds(scenario, name, replicas, alive_pop);
        let majority = alive_pop * 2 > pop_before.get(&slice).copied().unwrap_or(0);
        checker.check_acked_durability(scenario, name, replicas, majority);
    }

    let stats = sim.node_stats();
    let sum = |f: fn(&NodeStats) -> u64| stats.iter().map(f).sum::<u64>();
    let metrics = RowMetrics {
        scenario,
        nodes,
        acked_puts,
        availability_under_fault: availability,
        convergence_rounds: rounds_used.unwrap_or(budget + 1),
        rounds_budget: budget,
        invariant_checks: checker.checks_run(),
        invariant_violations: checker.violations().len(),
        frames_dropped_injected: sum(|s| s.frames_dropped_injected),
        frames_duplicated_injected: sum(|s| s.frames_duplicated_injected),
        partition_refusals: sum(|s| s.partition_refusals),
        corrupt_injected: 0, // frame corruption is physical: byte transports only
        wire_rejects: sum(|s| s.wire_rejects),
        replayed_identically: 0,
        wall_ms: 0,
        report: checker.report(),
    };
    let trace = (
        stats,
        sim.messages_delivered(),
        sim.messages_dropped(),
        sim.timer_fires(),
        sim.alive_count(),
    );
    (metrics, trace)
}

/// Alive replicas of `key` *within its own slice* (the invariant's census:
/// churn can leave stale copies on nodes that since changed slice, and
/// those neither count towards nor against the slice's bounds).
fn slice_replicas(
    sim: &Simulation,
    members: &HashMap<u32, Vec<NodeId>>,
    partition: SlicePartition,
    key: Key,
) -> usize {
    members
        .get(&partition.slice_of(key).index())
        .map_or(0, |ids| {
            ids.iter()
                .filter(|id| sim.node(**id).store().get_latest(key).is_some())
                .count()
        })
}

// ---------------------------------------------------------------------------
// Socket scenario
// ---------------------------------------------------------------------------

/// The socket runtime through a partition + loss + duplication window with
/// a read workload and writes confined to one side, a post-heal
/// convergence probe against the *other* side's replicas, then
/// one-at-a-time frame corruption audited by the accounting invariant.
fn run_socket_scenario(nodes: usize, seed: u64) -> RowMetrics {
    let start = Instant::now();
    let slices = (nodes as u32 / 50).max(2);
    let mut config = NodeConfig::for_system_size(nodes, slices);
    config.pss.shuffle_period = Duration::from_secs(1);
    config.slicing.gossip_period = Duration::from_secs(2);
    config.replication.anti_entropy_period = Duration::from_secs(2);
    let ae_period = std::time::Duration::from_secs(2);
    let mut capacity_rng = StdRng::seed_from_u64(seed);
    let capacities: Vec<u64> = (0..nodes)
        .map(|_| capacity_rng.gen_range(100..=10_000))
        .collect();
    let spec = ClusterSpec::new(config, capacities, seed);

    // Warm slice-aware contact plan (a deterministic function of the spec).
    let plan_nodes = spec.build_nodes();
    let key_partition = plan_nodes[0].partition();
    let mut members_by_slice: Vec<Vec<NodeId>> = vec![Vec::new(); slices as usize];
    for node in &plan_nodes {
        if let Some(slice) = node.slice() {
            members_by_slice[slice.index() as usize].push(node.id());
        }
    }
    drop(plan_nodes);

    let mut cluster = SocketCluster::start_spec_with(
        &spec,
        SocketClusterConfig {
            workers: 2,
            transport: SocketTransportKind::Tcp,
            ..SocketClusterConfig::default()
        },
    );
    cluster.set_drain_idle_grace(Duration::from_millis(200));
    let fault_plan = cluster.fault_plan();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5AFE);
    std::thread::sleep(std::time::Duration::from_millis(2_500));

    // --- Load phase -------------------------------------------------------
    let object_count = 64usize;
    let keys: Vec<Key> = (0..object_count)
        .map(|i| Key::from_user_key(&format!("sock-nemesis-{i}")))
        .collect();
    let load_start = Instant::now();
    for (i, key) in keys.iter().enumerate() {
        let members = &members_by_slice[key_partition.slice_of(*key).index() as usize];
        let contact = members[rng.gen_range(0..members.len())];
        cluster.submit_client_request(
            CLIENT,
            contact,
            ClientRequest::Put {
                id: RequestId::new(CLIENT, i as u64),
                key: *key,
                version: Version::new(1),
                value: Value::filled(64, 6),
            },
        );
    }
    let (acked_puts, _) = await_completions(&mut cluster, load_start, object_count, |reply| {
        matches!(reply.body, ReplyBody::PutAck { .. })
    });
    // Replicas need a beat to spread beyond the contact before the cut.
    std::thread::sleep(2 * ae_period);

    // --- Fault window: split-brain by id parity + loss + duplication ------
    let (side_a, side_b): (Vec<NodeId>, Vec<NodeId>) = (0..nodes as u64)
        .map(NodeId::new)
        .partition(|id| id.as_u64() % 2 == 0);
    fault_plan.set_partition(&[side_a.clone(), side_b.clone()]);
    fault_plan.set_loss(None, 0.25);
    fault_plan.set_duplicate(None, 0.2);

    // Writes confined to side A: the post-heal probe watches them reach B.
    let cut_keys: Vec<Key> = (0..8)
        .map(|i| Key::from_user_key(&format!("sock-cut-{i}")))
        .collect();
    for (i, key) in cut_keys.iter().enumerate() {
        let contact = side_member(&members_by_slice, key_partition, *key, 0)
            .unwrap_or(side_a[i % side_a.len()]);
        cluster
            .put_via(
                contact,
                *key,
                Version::new(1),
                Value::filled(64, 9),
                Duration::from_secs(5),
            )
            .expect("a cut-side replica still acks its own put");
    }

    // Reads through *random* contacts: requests must hop to the key's slice
    // over lossy, duplicated, partitioned links — this is the availability
    // the row reports.
    let mut attempts = 0u64;
    let mut hits = 0u64;
    let window_deadline = Instant::now() + std::time::Duration::from_secs(6);
    while Instant::now() < window_deadline {
        let key = keys[rng.gen_range(0..keys.len())];
        let contact = NodeId::new(rng.gen_range(0..nodes as u64));
        attempts += 1;
        if matches!(
            cluster.get_via(contact, key, None, Duration::from_millis(1_000)),
            Ok(Some(_))
        ) {
            hits += 1;
        }
    }
    let availability = hits as f64 / attempts.max(1) as f64;

    // --- Heal; watch the cut-side writes converge onto side B -------------
    fault_plan.heal();
    fault_plan.clear();
    let budget = 4 * spec.node_config.effective_store_shards() as usize + 8;
    let heal_at = Instant::now();
    let give_up = heal_at + ae_period * budget as u32;
    let mut rounds_used = None;
    'converge: loop {
        let converged = cut_keys.iter().all(|key| {
            let Some(probe) = side_member(&members_by_slice, key_partition, *key, 1) else {
                // A slice entirely on side A: nothing to wait for.
                return true;
            };
            matches!(
                cluster.get_via(probe, *key, None, Duration::from_millis(500)),
                Ok(Some(_))
            )
        });
        if converged {
            let elapsed = heal_at.elapsed();
            rounds_used = Some((elapsed.as_millis() / ae_period.as_millis()).max(1) as usize);
            break 'converge;
        }
        if Instant::now() >= give_up {
            break 'converge;
        }
        std::thread::sleep(std::time::Duration::from_millis(250));
    }

    // --- Frame corruption, one at a time -----------------------------------
    // A corrupt frame closes its connection after exactly one reject, and
    // frames buffered behind it die uncounted — bulk arming would
    // undercount, so each arm waits for its reject to land.
    const CORRUPT_FRAMES: u64 = 8;
    for round in 1..=CORRUPT_FRAMES {
        fault_plan.arm_corruption(1);
        let deadline = Instant::now() + std::time::Duration::from_secs(20);
        while fault_plan.corrupted_frames() < round || cluster.wire_reject_count() < round {
            assert!(
                Instant::now() < deadline,
                "corruption round {round}: {} corrupted, {} rejects",
                fault_plan.corrupted_frames(),
                cluster.wire_reject_count()
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }

    // --- Invariants ---------------------------------------------------------
    let mut checker = InvariantChecker::new();
    checker.check_convergence("socket", rounds_used, budget);
    checker.check_corruption_accounting(
        "socket",
        fault_plan.corrupted_frames(),
        cluster.wire_reject_count(),
    );
    let final_nodes = cluster.shutdown();
    let mut alive_per_slice: HashMap<u32, usize> = HashMap::new();
    for node in &final_nodes {
        if let Some(slice) = node.slice() {
            *alive_per_slice.entry(slice.index()).or_default() += 1;
        }
    }
    for key in keys.iter().chain(&cut_keys) {
        let replicas = final_nodes
            .iter()
            .filter(|node| {
                node.slice().map(SliceId::index) == Some(key_partition.slice_of(*key).index())
                    && node.store().get_latest(*key).is_some()
            })
            .count();
        let slice = key_partition.slice_of(*key).index();
        let alive_pop = alive_per_slice.get(&slice).copied().unwrap_or(0);
        let name = format!("{key:?}");
        checker.check_replication_bounds("socket", &name, replicas, alive_pop);
        // No churn on this row: every slice keeps its full (= majority)
        // population, so every acked object must still be held.
        checker.check_acked_durability("socket", &name, replicas, true);
    }

    let sum = |f: fn(&NodeStats) -> u64| final_nodes.iter().map(|n| f(n.stats())).sum::<u64>();
    RowMetrics {
        scenario: "socket_faults",
        nodes,
        acked_puts: acked_puts as u64,
        availability_under_fault: availability,
        convergence_rounds: rounds_used.unwrap_or(budget + 1),
        rounds_budget: budget,
        invariant_checks: checker.checks_run(),
        invariant_violations: checker.violations().len(),
        frames_dropped_injected: sum(|s| s.frames_dropped_injected),
        frames_duplicated_injected: sum(|s| s.frames_duplicated_injected),
        partition_refusals: sum(|s| s.partition_refusals),
        corrupt_injected: fault_plan.corrupted_frames(),
        wire_rejects: sum(|s| s.wire_rejects),
        replayed_identically: 0,
        wall_ms: start.elapsed().as_millis() as u64,
        report: checker.report(),
    }
}

/// A member of `key`'s slice on partition side `parity` (0 = even ids,
/// 1 = odd ids), if the slice has one there.
fn side_member(
    members_by_slice: &[Vec<NodeId>],
    partition: SlicePartition,
    key: Key,
    parity: u64,
) -> Option<NodeId> {
    members_by_slice[partition.slice_of(key).index() as usize]
        .iter()
        .copied()
        .find(|id| id.as_u64() % 2 == parity)
}
