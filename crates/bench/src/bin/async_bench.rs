//! Async-runtime scaling baseline: hosts a multi-thousand-node DataFlasks
//! cluster on the event-driven `AsyncCluster` (sharded work-stealing
//! scheduler, framed transport, per-worker timer wheels), drives a put/get
//! workload through it at each worker count of a sweep, and writes
//! throughput and latency medians to `BENCH_async.json` so successive PRs
//! have a scaling trajectory. The `workers = 1` row is the baseline the
//! multi-worker rows are judged against.
//!
//! ```bash
//! cargo run -p dataflasks-bench --release --bin async_bench
//! # CI smoke: fewer operations, same 2000-node cluster, same sweep
//! cargo run -p dataflasks-bench --release --bin async_bench -- \
//!     --puts 150 --gets 150 --latency-ops 40
//! ```

use std::collections::HashSet;
use std::time::Instant;

use dataflasks::core::{ClientRequest, Environment, ReplyBody};
use dataflasks::prelude::*;
use dataflasks_bench::{
    await_completions, percentile, print_scaling_summary, write_sweep_json, SweepRow,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Args {
    nodes: usize,
    slices: u32,
    sweep: Vec<usize>,
    mailbox: usize,
    puts: usize,
    gets: usize,
    latency_ops: usize,
}

impl Args {
    fn parse() -> Self {
        let mut args = Self {
            nodes: 2_000,
            slices: 0, // 0 = derive (≈50 nodes per slice)
            sweep: vec![1, 2, 4, 8],
            mailbox: 0,
            puts: 400,
            gets: 400,
            latency_ops: 100,
        };
        let mut iter = std::env::args().skip(1);
        while let Some(flag) = iter.next() {
            let mut take = |target: &mut usize| {
                *target = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("{flag} needs a numeric value"));
            };
            match flag.as_str() {
                "--nodes" => take(&mut args.nodes),
                "--mailbox" => take(&mut args.mailbox),
                "--puts" => take(&mut args.puts),
                "--gets" => take(&mut args.gets),
                "--latency-ops" => take(&mut args.latency_ops),
                "--workers" => {
                    // A single-point "sweep" for quick ad-hoc runs.
                    let mut v = 0usize;
                    take(&mut v);
                    args.sweep = vec![v];
                }
                "--sweep" => {
                    let list = iter.next().unwrap_or_else(|| panic!("--sweep needs 1,2,4"));
                    args.sweep = list
                        .split(',')
                        .map(|w| w.parse().expect("--sweep takes worker counts"))
                        .collect();
                    assert!(!args.sweep.is_empty(), "--sweep must name a worker count");
                }
                "--slices" => {
                    let mut v = 0usize;
                    take(&mut v);
                    args.slices = v as u32;
                }
                other => panic!("unknown flag {other}"),
            }
        }
        if args.slices == 0 {
            args.slices = (args.nodes as u32 / 50).max(2);
        }
        args
    }
}

const CLIENT: u64 = 7;

fn main() {
    let args = Args::parse();
    // Paper-style configuration. The periodic substrate runs at two-second
    // gossip: every sweep row (sub-second workloads after the parallel
    // spawn) still measures with live timer-wheel traffic competing with
    // requests, without 2000 shuffles per second drowning a small host.
    let mut config = NodeConfig::for_system_size(args.nodes, args.slices);
    config.pss.shuffle_period = Duration::from_secs(2);
    config.slicing.gossip_period = Duration::from_secs(4);
    config.replication.anti_entropy_period = Duration::from_secs(10);
    let mut capacity_rng = StdRng::seed_from_u64(0xA57C);
    let capacities: Vec<u64> = (0..args.nodes)
        .map(|_| capacity_rng.gen_range(100..=10_000))
        .collect();
    let spec = ClusterSpec::new(config, capacities, 0xA57C);

    // Contact selection models a client that knows the slice layout:
    // requests go to a member of the key's responsible slice, chosen
    // uniformly. The plan is shared by every sweep row (the spec is
    // deterministic).
    let plan = spec.build_nodes();
    let partition = plan[0].partition();
    let mut members_by_slice: Vec<Vec<NodeId>> = vec![Vec::new(); args.slices as usize];
    for node in &plan {
        if let Some(slice) = node.slice() {
            members_by_slice[slice.index() as usize].push(node.id());
        }
    }
    drop(plan);
    for (index, members) in members_by_slice.iter().enumerate() {
        assert!(
            !members.is_empty(),
            "slice {index} has no members: the --nodes/--slices ratio leaves \
             slices unpopulated; use at least ~25 nodes per slice"
        );
    }

    let rows: Vec<SweepRow> = args
        .sweep
        .iter()
        .map(|&workers| run_row(&args, &spec, partition, &members_by_slice, workers))
        .collect();

    write_sweep_json(
        "BENCH_async.json",
        &[
            // Closed-loop: each blocking operation waits out the previous
            // one, so the sweep measures latency under light load, not
            // capacity — BENCH_openloop.json carries the capacity numbers.
            ("workload_mode", "\"closed_loop_latency_bound\"".to_string()),
            ("nodes", args.nodes.to_string()),
            ("slices", args.slices.to_string()),
            ("mailbox_capacity", args.mailbox.to_string()),
        ],
        &rows,
    );
    print_scaling_summary(&rows, "");
}

/// Runs the whole workload once at `workers` workers and returns the row.
fn run_row(
    args: &Args,
    spec: &ClusterSpec,
    partition: SlicePartition,
    members_by_slice: &[Vec<NodeId>],
    workers: usize,
) -> SweepRow {
    let mut rng = StdRng::seed_from_u64(0xA57C ^ (workers as u64) << 32);
    let spawn_start = Instant::now();
    let mut cluster = AsyncCluster::start_spec_with(
        spec,
        AsyncClusterConfig {
            workers,
            mailbox_capacity: args.mailbox,
            ..AsyncClusterConfig::default()
        },
    );
    let spawn_ms = spawn_start.elapsed().as_millis();
    let timings = cluster.spawn_timings();
    let workers = cluster.worker_count();
    assert!(workers <= 8, "the scaling claim is ≤8 worker threads");
    cluster.set_drain_idle_grace(Duration::from_millis(100));
    println!(
        "spawned {} nodes ({} slices) on {workers} workers in {spawn_ms} ms \
         (build {} ms, arm {} ms)",
        args.nodes,
        args.slices,
        timings.build.as_millis(),
        timings.arm.as_millis(),
    );

    // Let the staggered first gossip rounds start flowing (a bit over one
    // shuffle period, so every row measures with the substrate live).
    std::thread::sleep(std::time::Duration::from_millis(2_300));

    let contact_for = |key: Key, rng: &mut StdRng| -> NodeId {
        let members = &members_by_slice[partition.slice_of(key).index() as usize];
        members[rng.gen_range(0..members.len())]
    };

    // --- Pipelined put throughput ---------------------------------------
    let key_of = |i: usize| Key::from_user_key(&format!("bench-{workers}-{i}"));
    let put_start = Instant::now();
    for i in 0..args.puts {
        let key = key_of(i);
        let contact = contact_for(key, &mut rng);
        cluster.submit_client_request(
            CLIENT,
            contact,
            ClientRequest::Put {
                id: RequestId::new(CLIENT, i as u64),
                key,
                version: Version::new(1),
                value: Value::filled(128, 7),
            },
        );
    }
    let (put_acked, put_elapsed) = await_completions(&mut cluster, put_start, args.puts, |reply| {
        matches!(reply.body, ReplyBody::PutAck { .. })
    });
    let put_throughput = put_acked as f64 / put_elapsed.as_secs_f64();

    // --- Pipelined get throughput ----------------------------------------
    let get_start = Instant::now();
    for i in 0..args.gets {
        let key = key_of(i % args.puts.max(1));
        let contact = contact_for(key, &mut rng);
        cluster.submit_client_request(
            CLIENT,
            contact,
            ClientRequest::Get {
                id: RequestId::new(CLIENT, (args.puts + i) as u64),
                key,
                version: None,
            },
        );
    }
    // A get is *answered* once any responsible replica replies (hit or
    // miss); hits are tracked separately — epidemic replication coverage is
    // what decides whether the contacted subgraph holds the object.
    let mut get_hits: HashSet<RequestId> = HashSet::new();
    let (get_answered, get_elapsed) = {
        let hits = &mut get_hits;
        await_completions(&mut cluster, get_start, args.gets, |reply| {
            match reply.body {
                ReplyBody::GetHit { .. } => {
                    hits.insert(reply.request);
                    true
                }
                ReplyBody::GetMiss { .. } => true,
                ReplyBody::PutAck { .. } => false,
            }
        })
    };
    let get_throughput = get_answered as f64 / get_elapsed.as_secs_f64();

    // --- Blocking-API latency --------------------------------------------
    let mut put_lat_us = Vec::with_capacity(args.latency_ops);
    let mut get_lat_us = Vec::with_capacity(args.latency_ops);
    // Slice-aware blocking round trips: submit to a responsible contact
    // (the warmed-load-balancer pattern, like the throughput phases) and
    // time submit→first-reply. A retry guards the rare in-slice expiry.
    let with_retries = |mut op: Box<dyn FnMut() -> bool + '_>| -> f64 {
        for _ in 0..8 {
            let start = Instant::now();
            if op() {
                return start.elapsed().as_nanos() as f64 / 1_000.0;
            }
        }
        panic!("operation failed eight attempts in a row");
    };
    for i in 0..args.latency_ops {
        let key = Key::from_user_key(&format!("lat-{workers}-{i}"));
        let contact = contact_for(key, &mut rng);
        put_lat_us.push(with_retries(Box::new(|| {
            cluster
                .put_via(
                    contact,
                    key,
                    Version::new(1),
                    Value::filled(128, 9),
                    Duration::from_secs(5),
                )
                .is_ok()
        })));
        get_lat_us.push(with_retries(Box::new(|| {
            matches!(
                cluster.get_via(contact, key, None, Duration::from_secs(5)),
                Ok(Some(_))
            )
        })));
    }

    // --- Substrate sanity + teardown --------------------------------------
    let saturations = cluster.saturation_events();
    let nodes = cluster.shutdown();
    let gossip_messages: u64 = nodes
        .iter()
        .map(|n| n.stats().sent(MessageKind::Membership) + n.stats().sent(MessageKind::Slicing))
        .sum();
    let ae_skipped: u64 = nodes.iter().map(|n| n.stats().ae_chunks_skipped).sum();
    let stored_keys: usize = nodes
        .iter()
        .map(|n| dataflasks::store::DataStore::len(n.store()))
        .sum();
    assert!(
        put_acked > 0 && get_answered > 0,
        "a sweep row completed zero operations (workers {workers})"
    );
    // The warm-up sleep outlives one shuffle period, so every row — smoke
    // included — must show periodic traffic from the timer wheels.
    assert!(
        gossip_messages > 0,
        "the periodic substrate must have run on the timer wheels"
    );

    let results = vec![
        ("workers", workers as f64),
        ("spawn_ms", spawn_ms as f64),
        ("spawn_build_ms", timings.build.as_millis() as f64),
        ("spawn_arm_ms", timings.arm.as_millis() as f64),
        (
            "spawn_ms_per_node",
            spawn_ms as f64 / (args.nodes.max(1)) as f64,
        ),
        ("puts_submitted", args.puts as f64),
        ("puts_completed", put_acked as f64),
        ("put_throughput_ops_per_s", put_throughput),
        ("gets_submitted", args.gets as f64),
        ("gets_answered", get_answered as f64),
        ("get_hits", get_hits.len() as f64),
        ("get_throughput_ops_per_s", get_throughput),
        ("put_latency_p50_us", percentile(&mut put_lat_us, 0.50)),
        ("put_latency_p99_us", percentile(&mut put_lat_us, 0.99)),
        ("put_latency_p999_us", percentile(&mut put_lat_us, 0.999)),
        ("get_latency_p50_us", percentile(&mut get_lat_us, 0.50)),
        ("get_latency_p99_us", percentile(&mut get_lat_us, 0.99)),
        ("get_latency_p999_us", percentile(&mut get_lat_us, 0.999)),
        ("mailbox_saturations", saturations as f64),
        ("gossip_messages", gossip_messages as f64),
        ("ae_chunks_skipped", ae_skipped as f64),
        ("replica_objects_total", stored_keys as f64),
    ];
    for (name, value) in &results {
        println!("[workers {workers}] {name}: {value:.2}");
    }
    results
}
