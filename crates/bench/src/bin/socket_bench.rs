//! Socket-runtime scaling baseline: hosts DataFlasks clusters on the
//! socket-backed `SocketCluster` — every node behind a real loopback
//! listener, every protocol hop a dialed, framed, reassembled byte stream
//! pumped by per-thread readiness reactors — drives a put/get workload
//! through each `nodes:workers` row of a sweep, and writes throughput and
//! latency percentiles (p50/p99/p99.9) to `BENCH_socket.json` (the same
//! sweep schema as `BENCH_async.json`, plus the transport counters: dials,
//! dial retries, wire rejects, frame-arena buffer counts).
//!
//! ```bash
//! cargo run -p dataflasks-bench --release --bin socket_bench
//! # CI smoke: fewer operations, explicit rows (a 220-node scaling pair
//! # and the 2000-node row), steady-state allocation assertion on
//! cargo run -p dataflasks-bench --release --bin socket_bench -- \
//!     --rows 220:1,220:2,2000:2 --puts 100 --gets 100 --latency-ops 20 \
//!     --assert-steady-alloc
//! # Unix-domain sockets instead of TCP
//! cargo run -p dataflasks-bench --release --bin socket_bench -- --transport unix
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
    /// The `(nodes, workers)` sweep rows. `None` until finalised by
    /// [`Args::parse`].
    rows: Option<Vec<(usize, usize)>>,
    mailbox: usize,
    puts: usize,
    gets: usize,
    latency_ops: usize,
    transport: SocketTransportKind,
    /// Assert that the latency phase allocated zero fresh arena buffers and
    /// zero fresh batch vectors: the warmed cluster must run steady-state
    /// send/receive entirely on recycled frame and reassembly buffers, and
    /// every worker must batch from the vectors its earlier rounds handed
    /// back to its dispatch scratch.
    assert_steady_alloc: bool,
}

impl Args {
    fn parse() -> Self {
        let mut args = Self {
            // The acceptance bar for the socket backend is a ≥200-node
            // loopback cluster; leave headroom above it. The default row
            // plan below additionally scales one row to 2000 nodes.
            nodes: 220,
            slices: 0, // 0 = derive (≈50 nodes per slice)
            rows: None,
            mailbox: 0,
            // Bursts deep enough to amortise pipeline fill and keep the
            // vectored flush coalescing many frames per syscall — the
            // steady-state regime the throughput columns are meant to
            // measure (the pre-reactor artifact used 200-op bursts, which
            // mostly measured the first flood's completion latency).
            puts: 1_600,
            gets: 1_600,
            latency_ops: 100,
            transport: SocketTransportKind::Tcp,
            assert_steady_alloc: false,
        };
        // `--nodes`/`--workers`/`--sweep` keep their single-node-count
        // meaning; `--rows` supersedes all three.
        let mut sweep: Vec<usize> = vec![1, 2];
        let mut shape_overridden = false;
        let mut iter = std::env::args().skip(1);
        while let Some(flag) = iter.next() {
            let mut take = |target: &mut usize| {
                *target = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("{flag} needs a numeric value"));
            };
            match flag.as_str() {
                "--nodes" => {
                    take(&mut args.nodes);
                    shape_overridden = true;
                }
                "--mailbox" => take(&mut args.mailbox),
                "--puts" => take(&mut args.puts),
                "--gets" => take(&mut args.gets),
                "--latency-ops" => take(&mut args.latency_ops),
                "--workers" => {
                    let mut v = 0usize;
                    take(&mut v);
                    sweep = vec![v];
                    shape_overridden = true;
                }
                "--sweep" => {
                    let list = iter.next().unwrap_or_else(|| panic!("--sweep needs 1,2"));
                    sweep = list
                        .split(',')
                        .map(|w| w.parse().expect("--sweep takes worker counts"))
                        .collect();
                    assert!(!sweep.is_empty(), "--sweep must name a worker count");
                    shape_overridden = true;
                }
                "--rows" => {
                    let list = iter
                        .next()
                        .unwrap_or_else(|| panic!("--rows needs 220:1,2000:2"));
                    let rows: Vec<(usize, usize)> = list
                        .split(',')
                        .map(|row| {
                            let (nodes, workers) = row
                                .split_once(':')
                                .unwrap_or_else(|| panic!("--rows entries are nodes:workers"));
                            (
                                nodes.parse().expect("--rows node counts are numeric"),
                                workers.parse().expect("--rows worker counts are numeric"),
                            )
                        })
                        .collect();
                    assert!(!rows.is_empty(), "--rows must name at least one row");
                    args.rows = Some(rows);
                }
                "--slices" => {
                    let mut v = 0usize;
                    take(&mut v);
                    args.slices = v as u32;
                }
                "--transport" => {
                    let kind = iter
                        .next()
                        .unwrap_or_else(|| panic!("--transport needs tcp|unix"));
                    args.transport = match kind.as_str() {
                        "tcp" => SocketTransportKind::Tcp,
                        "unix" => SocketTransportKind::Unix,
                        other => panic!("unknown transport {other} (tcp|unix)"),
                    };
                }
                "--assert-steady-alloc" => args.assert_steady_alloc = true,
                other => panic!("unknown flag {other}"),
            }
        }
        if args.rows.is_none() {
            let mut rows: Vec<(usize, usize)> =
                sweep.iter().map(|&workers| (args.nodes, workers)).collect();
            if !shape_overridden {
                // The default plan: the historical 220-node scaling pair,
                // plus one row an order of magnitude up.
                rows.push((2_000, 2));
            }
            args.rows = Some(rows);
        }
        if args.slices == 0 {
            args.slices = (args.nodes as u32 / 50).max(2);
        }
        args
    }

    /// Slice count for a row's node count: the explicit `--slices` override,
    /// or the ≈50-nodes-per-slice derivation.
    fn slices_for(&self, nodes: usize) -> u32 {
        if nodes == self.nodes {
            self.slices
        } else {
            (nodes as u32 / 50).max(2)
        }
    }
}

const CLIENT: u64 = 7;

/// The historical baselines this artifact's `history` header records, both
/// the 220-node workers-1 row: as measured before the readiness-reactor,
/// vectored-write and frame-arena overhaul (one reactor thread spinning
/// over every socket, one `write` syscall per frame, a fresh allocation
/// per frame and per read), and as re-measured on the 2-vCPU host right
/// before frame decoding moved from the reactor to the workers (the sweep
/// rows are the same run after it).
const BASELINE_HISTORY: &str = concat!(
    "{\n",
    "    \"scan_loop_single_frame_writes\": {\n",
    "      \"nodes\": 220,\n",
    "      \"workers\": 1,\n",
    "      \"put_throughput_ops_per_s\": 1616.64,\n",
    "      \"get_throughput_ops_per_s\": 1703.88,\n",
    "      \"put_latency_p50_us\": 13.65,\n",
    "      \"put_latency_p99_us\": 2334.92,\n",
    "      \"get_latency_p50_us\": 11.38,\n",
    "      \"get_latency_p99_us\": 428.84\n",
    "    },\n",
    "    \"reactor_side_decode\": {\n",
    "      \"nodes\": 220,\n",
    "      \"workers\": 1,\n",
    "      \"put_throughput_ops_per_s\": 7940.50,\n",
    "      \"get_throughput_ops_per_s\": 10341.27,\n",
    "      \"put_latency_p50_us\": 167.43,\n",
    "      \"put_latency_p99_us\": 1193.30,\n",
    "      \"get_latency_p50_us\": 158.68,\n",
    "      \"get_latency_p99_us\": 1481.55\n",
    "    }\n",
    "  }"
);

fn main() {
    let args = Args::parse();
    let rows_plan = args.rows.clone().expect("parse() finalises the row plan");
    let rows: Vec<SweepRow> = rows_plan
        .iter()
        .map(|&(nodes, workers)| run_row(&args, nodes, workers))
        .collect();

    let transport_name = match args.transport {
        SocketTransportKind::Tcp => "tcp",
        SocketTransportKind::Unix => "unix",
    };
    write_sweep_json(
        "BENCH_socket.json",
        &[
            // Closed-loop: each blocking operation waits out the previous
            // one, so the sweep measures latency under light load, not
            // capacity — BENCH_openloop.json carries the capacity numbers.
            ("workload_mode", "\"closed_loop_latency_bound\"".to_string()),
            // The header keeps the historical 220-node shape (every row
            // also records its own node count).
            ("nodes", args.nodes.to_string()),
            ("slices", args.slices.to_string()),
            ("mailbox_capacity", args.mailbox.to_string()),
            ("transport", format!("\"{transport_name}\"")),
            ("history", BASELINE_HISTORY.to_string()),
        ],
        &rows,
    );
    print_scaling_summary(&rows, &format!(" ({transport_name})"));
}

/// Runs the whole workload once on a fresh `nodes`-node cluster at
/// `workers` workers and returns the row.
fn run_row(args: &Args, nodes: usize, workers: usize) -> SweepRow {
    // Same substrate pacing as the async bench: two-second gossip keeps the
    // periodic protocols live under the workload without drowning the host.
    let slices = args.slices_for(nodes);
    let mut config = NodeConfig::for_system_size(nodes, slices);
    config.pss.shuffle_period = Duration::from_secs(2);
    config.slicing.gossip_period = Duration::from_secs(4);
    config.replication.anti_entropy_period = Duration::from_secs(3);
    let mut capacity_rng = StdRng::seed_from_u64(0x50C4E7);
    let capacities: Vec<u64> = (0..nodes)
        .map(|_| capacity_rng.gen_range(100..=10_000))
        .collect();
    let spec = ClusterSpec::new(config, capacities, 0x50C4E7);

    // Warmed slice-aware contact plan (deterministic function of the spec).
    let plan = spec.build_nodes();
    let partition = plan[0].partition();
    let mut members_by_slice: Vec<Vec<NodeId>> = vec![Vec::new(); slices as usize];
    for node in &plan {
        if let Some(slice) = node.slice() {
            members_by_slice[slice.index() as usize].push(node.id());
        }
    }
    drop(plan);
    for (index, members) in members_by_slice.iter().enumerate() {
        assert!(
            !members.is_empty(),
            "slice {index} has no members: the nodes/slices ratio leaves \
             slices unpopulated; use at least ~25 nodes per slice"
        );
    }
    let members_by_slice = &members_by_slice;

    let mut rng = StdRng::seed_from_u64(0x50C4E7 ^ ((nodes as u64) << 20) ^ (workers as u64) << 32);
    let spawn_start = Instant::now();
    let mut cluster = SocketCluster::start_spec_with(
        &spec,
        SocketClusterConfig {
            workers,
            mailbox_capacity: args.mailbox,
            transport: args.transport,
            ..SocketClusterConfig::default()
        },
    );
    let spawn_ms = spawn_start.elapsed().as_millis();
    let workers = cluster.worker_count();
    assert!(workers <= 8, "the scaling claim is ≤8 worker threads");
    cluster.set_drain_idle_grace(Duration::from_millis(100));
    println!(
        "spawned {nodes} nodes ({slices} slices, {nodes} listeners) on \
         {workers} workers ({} reactors) in {spawn_ms} ms",
        cluster.io_thread_count(),
    );

    // Let the staggered first gossip rounds start flowing (a bit over one
    // shuffle period): every row measures with live socket traffic — and the
    // lazy dials it triggers — competing with requests.
    std::thread::sleep(std::time::Duration::from_millis(2_300));

    let contact_for = |key: Key, rng: &mut StdRng| -> NodeId {
        let members = &members_by_slice[partition.slice_of(key).index() as usize];
        members[rng.gen_range(0..members.len())]
    };

    // --- Pipelined put throughput ---------------------------------------
    let key_of = |i: usize| Key::from_user_key(&format!("sock-{workers}-{i}"));
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

    // --- Blocking-API latency (socket round trips) ------------------------
    // Steady state has to be reached before it can be asserted: the periodic
    // protocols (shuffle, slicing gossip, anti-entropy) each fan a wave of
    // frames across the whole cluster once per period, and the arena only
    // reaches its true high-water once every wave kind has fired *while
    // client ops were in flight*. Run untimed warm-up round trips spanning at
    // least one full cycle of the slowest period, then require one clean pass
    // (zero fresh allocations) before measuring; the measured phase must then
    // run entirely on recycled buffers — zero fresh allocations on the
    // encode, outbound-queue and reassembly paths — even if a gossip wave
    // lands inside it.
    let warm_keys: Vec<Key> = (0..64)
        .map(|i| Key::from_user_key(&format!("warm-{workers}-{i}")))
        .collect();
    let warm_start = Instant::now();
    let min_warm = std::time::Duration::from_millis(4_600);
    let warm_deadline = warm_start + std::time::Duration::from_secs(30);
    let mut warm_pass = 0u64;
    let fresh_allocations =
        |cluster: &SocketCluster| cluster.arena_fresh_buffers() + cluster.batch_fresh_vectors();
    loop {
        let fresh_at_pass_start = fresh_allocations(&cluster);
        for key in &warm_keys {
            let contact = contact_for(*key, &mut rng);
            let _ = cluster.put_via(
                contact,
                *key,
                Version::new(warm_pass + 2),
                Value::filled(128, 8),
                Duration::from_secs(10),
            );
            let _ = cluster.get_via(contact, *key, None, Duration::from_secs(10));
        }
        warm_pass += 1;
        let clean = fresh_allocations(&cluster) == fresh_at_pass_start;
        if std::env::var_os("SOCKET_BENCH_WARM_DEBUG").is_some() {
            eprintln!(
                "WARM pass {warm_pass} t={:?} fresh {} (+{}) recycled {} batch vectors {}",
                warm_start.elapsed(),
                cluster.arena_fresh_buffers(),
                fresh_allocations(&cluster) - fresh_at_pass_start,
                cluster.arena_recycled_buffers(),
                cluster.batch_fresh_vectors(),
            );
        }
        let now = Instant::now();
        if (clean && now >= warm_start + min_warm) || now >= warm_deadline {
            break;
        }
    }
    let fresh_before_latency = cluster.arena_fresh_buffers();
    let batches_before_latency = cluster.batch_fresh_vectors();
    let mut put_lat_us = Vec::with_capacity(args.latency_ops);
    let mut get_lat_us = Vec::with_capacity(args.latency_ops);
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
                    Duration::from_secs(10),
                )
                .is_ok()
        })));
        get_lat_us.push(with_retries(Box::new(|| {
            matches!(
                cluster.get_via(contact, key, None, Duration::from_secs(10)),
                Ok(Some(_))
            )
        })));
    }

    // --- Transport sanity + teardown ---------------------------------------
    let arena_steady_fresh_delta = cluster.arena_fresh_buffers() - fresh_before_latency;
    let batch_steady_fresh_delta = cluster.batch_fresh_vectors() - batches_before_latency;
    if args.assert_steady_alloc {
        assert_eq!(
            arena_steady_fresh_delta, 0,
            "steady state must allocate zero fresh arena buffers \
             ({arena_steady_fresh_delta} allocated during the latency phase)"
        );
        assert_eq!(
            batch_steady_fresh_delta, 0,
            "steady state must allocate zero fresh batch vectors \
             ({batch_steady_fresh_delta} allocated during the latency phase)"
        );
    }
    let arena_fresh = cluster.arena_fresh_buffers();
    let batch_fresh = cluster.batch_fresh_vectors();
    let arena_recycled = cluster.arena_recycled_buffers();
    let saturations = cluster.saturation_events();
    let dials = cluster.dial_count();
    let dial_retries = cluster.dial_retry_count();
    let wire_rejects = cluster.wire_reject_count();
    let final_nodes = cluster.shutdown();
    let gossip_messages: u64 = final_nodes
        .iter()
        .map(|n| n.stats().sent(MessageKind::Membership) + n.stats().sent(MessageKind::Slicing))
        .sum();
    let stored_keys: usize = final_nodes
        .iter()
        .map(|n| dataflasks::store::DataStore::len(n.store()))
        .sum();
    assert!(
        put_acked > 0 && get_answered > 0,
        "a sweep row completed zero operations (workers {workers})"
    );
    assert!(
        gossip_messages > 0,
        "the periodic substrate must have run over the sockets"
    );
    assert!(
        dials > 0,
        "protocol traffic must have dialed real connections"
    );
    assert_eq!(
        wire_rejects, 0,
        "loopback frames are byte-exact; a reject is an encoder/decoder bug"
    );

    let results = vec![
        ("workers", workers as f64),
        ("nodes", nodes as f64),
        ("spawn_ms", spawn_ms as f64),
        ("spawn_ms_per_node", spawn_ms as f64 / (nodes.max(1)) as f64),
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
        ("dials", dials as f64),
        ("dial_retries", dial_retries as f64),
        ("wire_rejects", wire_rejects as f64),
        ("arena_fresh_buffers", arena_fresh as f64),
        ("arena_recycled_buffers", arena_recycled as f64),
        ("arena_steady_fresh_delta", arena_steady_fresh_delta as f64),
        ("batch_fresh_vectors", batch_fresh as f64),
        ("gossip_messages", gossip_messages as f64),
        ("replica_objects_total", stored_keys as f64),
    ];
    for (name, value) in &results {
        println!("[{nodes} nodes, workers {workers}] {name}: {value:.2}");
    }
    results
}
