//! Closed-loop scaling sweep of the worker-pool runtime on either transport:
//! hosts a DataFlasks cluster on `Cluster<T>` — in-process mailboxes, or a
//! real loopback listener per node with every hop a dialed, framed,
//! reassembled byte stream — drives a put/get workload through each
//! `nodes:workers` row of a sweep, and writes throughput and latency
//! percentiles (p50/p99/p99.9), spawn timings and the runtime's counters
//! (saturations, wire rejects, frame-arena and batch-vector allocations,
//! requests refused as stale by dedup; dials for sockets) to
//! `BENCH_async.json` (in-process) or `BENCH_socket.json` (tcp, unix).
//!
//! The run exits non-zero, after writing its artifact, if a row completed
//! no operation, left a submitted operation uncompleted, ran no gossip,
//! rejected a frame, or is missing; with `--assert-steady-alloc`, also if
//! the latency phase allocated a fresh arena buffer or batch vector.
//!
//! ```bash
//! cargo run -p dataflasks-bench --release --bin cluster_bench
//! # CI smokes: the in-process worker sweep at 2000 nodes, and the socket
//! # 220-node scaling pair plus a 2000-node row with the steady-state
//! # allocation check on
//! cargo run -p dataflasks-bench --release --bin cluster_bench -- \
//!     --transport in-process --sweep 1,2,4,8 --puts 150 --gets 150 --latency-ops 40
//! cargo run -p dataflasks-bench --release --bin cluster_bench -- \
//!     --rows 220:1,220:2,2000:2 --puts 150 --gets 150 --latency-ops 30 \
//!     --assert-steady-alloc
//! ```

use std::collections::HashSet;
use std::time::Instant;

use dataflasks::core::{ClientRequest, Environment, ReplyBody};
use dataflasks::net_env::{Cluster, InProcess, Socket};
use dataflasks::prelude::*;
use dataflasks_bench::{
    await_completions, cell, percentile, publish, BenchTransport, Cell, ContactPlan, Row,
    CLOSED_LOOP_RULES, STEADY_ALLOC_RULES,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The sweep defaults that differ between the transports.
struct Profile {
    /// The artifact the sweep writes.
    artifact: &'static str,
    /// Node count of the default rows and of `--sweep`/`--workers` rows.
    nodes: usize,
    /// Worker counts of the default rows.
    sweep: &'static [usize],
    /// `(nodes, workers)` rows the default plan adds after the sweep.
    extra_rows: &'static [(usize, usize)],
    /// Pipelined puts and gets per burst.
    burst: usize,
    anti_entropy_period_s: u64,
    seed: u64,
    /// The artifact's `history` header: earlier states of its rows.
    history: &'static str,
}

/// A transport the sweep runs on: its defaults and the columns only it has.
trait Sweep: BenchTransport {
    const PROFILE: Profile;

    /// Columns only this transport records, read before shutdown.
    fn transport_columns(cluster: &Cluster<Self>) -> Row;
}

impl Sweep for InProcess {
    // 2000 nodes over a worker sweep; ten-second anti-entropy keeps the
    // periodic load of 2000 nodes from drowning a small host.
    const PROFILE: Profile = Profile {
        artifact: "BENCH_async.json",
        nodes: 2_000,
        sweep: &[1, 2, 4, 8],
        extra_rows: &[],
        burst: 400,
        anti_entropy_period_s: 10,
        seed: 0xA57C,
        // The workers-1 row as recorded before the latency phase had its
        // warm-up (the in-process sweep gained it when it merged with the
        // socket sweep).
        history: concat!(
            "{\n",
            "    \"no_latency_warm_up\": {\n",
            "      \"nodes\": 2000,\n",
            "      \"workers\": 1,\n",
            "      \"put_throughput_ops_per_s\": 2896.80,\n",
            "      \"get_throughput_ops_per_s\": 3133.71,\n",
            "      \"put_latency_p50_us\": 93.00,\n",
            "      \"put_latency_p99_us\": 244.74,\n",
            "      \"get_latency_p50_us\": 119.33,\n",
            "      \"get_latency_p99_us\": 222.71\n",
            "    }\n",
            "  }"
        ),
    };

    fn transport_columns(_: &Cluster<Self>) -> Row {
        Vec::new()
    }
}

impl Sweep for Socket {
    // The acceptance bar for the socket backend is a ≥200-node loopback
    // cluster; 220 leaves headroom, and the default plan adds one row an
    // order of magnitude up. Bursts are deep enough to amortise pipeline
    // fill and keep the vectored flush coalescing many frames per syscall.
    const PROFILE: Profile = Profile {
        artifact: "BENCH_socket.json",
        nodes: 220,
        sweep: &[1, 2],
        extra_rows: &[(2_000, 2)],
        burst: 1_600,
        anti_entropy_period_s: 3,
        seed: 0x50C4E7,
        // The 220-node workers-1 row as measured before the readiness-
        // reactor, vectored-write and frame-arena overhaul (one reactor
        // thread spinning over every socket, one `write` per frame, a fresh
        // allocation per frame and per read), and right before frame
        // decoding moved from the reactor to the workers.
        history: concat!(
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
        ),
    };

    fn transport_columns(cluster: &Cluster<Self>) -> Row {
        let dials = cluster.dial_count();
        assert!(
            dials > 0,
            "protocol traffic must have dialed real connections"
        );
        vec![
            ("dials", dials.into()),
            ("dial_retries", cluster.dial_retry_count().into()),
        ]
    }
}

struct Args {
    /// The header's node count: the `--sweep`/`--workers` rows' size.
    nodes: usize,
    /// Slices of `nodes`-node rows (other rows derive ≈50 nodes per slice).
    slices: u32,
    rows: Vec<(usize, usize)>,
    mailbox: usize,
    puts: usize,
    gets: usize,
    latency_ops: usize,
    socket: SocketTransportKind,
    transport_name: &'static str,
    assert_steady_alloc: bool,
}

impl Args {
    /// Parses the flags over `profile`'s defaults. `--nodes`, `--workers`
    /// and `--sweep` shape a one-node-count sweep; `--rows` supersedes all
    /// three.
    fn parse(argv: &[String], profile: &Profile) -> Self {
        let mut args = Self {
            nodes: profile.nodes,
            slices: 0, // 0 = derive (≈50 nodes per slice)
            rows: Vec::new(),
            mailbox: 0,
            puts: profile.burst,
            gets: profile.burst,
            latency_ops: 100,
            socket: SocketTransportKind::Tcp,
            transport_name: "tcp",
            assert_steady_alloc: false,
        };
        let mut sweep = profile.sweep.to_vec();
        let mut rows = None;
        let mut shape_overridden = false;
        let mut iter = argv.iter();
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
                    let plan: Vec<(usize, usize)> = list
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
                    assert!(!plan.is_empty(), "--rows must name at least one row");
                    rows = Some(plan);
                }
                "--slices" => {
                    let mut v = 0usize;
                    take(&mut v);
                    args.slices = v as u32;
                }
                "--transport" => {
                    (args.transport_name, args.socket) = match iter.next().map(String::as_str) {
                        Some("tcp") => ("tcp", SocketTransportKind::Tcp),
                        Some("unix") => ("unix", SocketTransportKind::Unix),
                        Some("in-process") => ("in-process", SocketTransportKind::Tcp),
                        other => panic!("unknown transport {other:?} (tcp|unix|in-process)"),
                    };
                }
                "--assert-steady-alloc" => args.assert_steady_alloc = true,
                other => panic!("unknown flag {other}"),
            }
        }
        args.rows = rows.unwrap_or_else(|| {
            let mut plan: Vec<(usize, usize)> =
                sweep.iter().map(|&workers| (args.nodes, workers)).collect();
            if !shape_overridden {
                plan.extend_from_slice(profile.extra_rows);
            }
            plan
        });
        if args.slices == 0 {
            args.slices = derived_slices(args.nodes);
        }
        args
    }

    /// Slice count of a row: the explicit `--slices` for `nodes`-node rows,
    /// the ≈50-nodes-per-slice derivation otherwise.
    fn slices_for(&self, nodes: usize) -> u32 {
        if nodes == self.nodes {
            self.slices
        } else {
            derived_slices(nodes)
        }
    }
}

fn derived_slices(nodes: usize) -> u32 {
    (nodes as u32 / 50).max(2)
}

const CLIENT: u64 = 7;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let in_process = argv
        .windows(2)
        .any(|pair| pair[0] == "--transport" && pair[1] == "in-process");
    if in_process {
        sweep::<InProcess>(&argv);
    } else {
        sweep::<Socket>(&argv);
    }
}

/// Runs every row of the plan on transport `T` and publishes the artifact.
fn sweep<T: Sweep>(argv: &[String]) {
    let profile = T::PROFILE;
    let args = Args::parse(argv, &profile);
    let rows: Vec<Row> = args
        .rows
        .iter()
        .map(|&(nodes, workers)| run_row::<T>(&args, &profile, nodes, workers))
        .collect();
    let mut rules = CLOSED_LOOP_RULES.to_vec();
    if args.assert_steady_alloc {
        rules.extend_from_slice(STEADY_ALLOC_RULES);
    }
    // Rows are matched on the requested shape; `0` workers records the
    // count the cluster picked, so only `nodes` can be matched then.
    let requested: Vec<Row> = args
        .rows
        .iter()
        .map(|&(nodes, workers)| {
            let mut key: Row = vec![("nodes", nodes.into())];
            if workers > 0 {
                key.push(("workers", workers.into()));
            }
            key
        })
        .collect();
    print_scaling_summary(&rows, args.transport_name);
    publish(
        profile.artifact,
        &[
            // Closed-loop: each blocking operation waits out the previous
            // one, so the sweep measures latency under light load, not
            // capacity — BENCH_openloop.json carries the capacity numbers.
            (
                "workload_mode",
                Cell::Str("closed_loop_latency_bound").to_string(),
            ),
            ("nodes", args.nodes.to_string()),
            ("slices", args.slices.to_string()),
            ("mailbox_capacity", args.mailbox.to_string()),
            ("transport", Cell::Str(args.transport_name).to_string()),
            ("history", profile.history.to_string()),
        ],
        &rows,
        &rules,
        &requested,
    );
}

/// Runs the whole workload once on a fresh `nodes`-node cluster at
/// `workers` workers and returns the row.
fn run_row<T: Sweep>(args: &Args, profile: &Profile, nodes: usize, workers: usize) -> Row {
    // Two-second gossip keeps the periodic protocols live under the
    // workload without drowning the host.
    let slices = args.slices_for(nodes);
    let mut config = NodeConfig::for_system_size(nodes, slices);
    config.pss.shuffle_period = Duration::from_secs(2);
    config.slicing.gossip_period = Duration::from_secs(4);
    config.replication.anti_entropy_period = Duration::from_secs(profile.anti_entropy_period_s);
    let mut capacity_rng = StdRng::seed_from_u64(profile.seed);
    let capacities: Vec<u64> = (0..nodes)
        .map(|_| capacity_rng.gen_range(100..=10_000))
        .collect();
    let spec = ClusterSpec::new(config, capacities, profile.seed);

    let plan = ContactPlan::build(&spec);
    let mut rng =
        StdRng::seed_from_u64(profile.seed ^ ((nodes as u64) << 20) ^ (workers as u64) << 32);
    let spawn_start = Instant::now();
    let mut cluster =
        Cluster::<T>::start_spec_with(&spec, T::config(workers, args.mailbox, args.socket));
    let spawn_ms = spawn_start.elapsed().as_millis() as u64;
    let timings = cluster.spawn_timings();
    let workers = cluster.worker_count();
    assert!(workers <= 8, "the scaling claim is ≤8 worker threads");
    cluster.set_drain_idle_grace(Duration::from_millis(100));
    println!(
        "spawned {nodes} nodes ({slices} slices) on {workers} workers in {spawn_ms} ms \
         (build {} ms, arm {} ms)",
        timings.build.as_millis(),
        timings.arm.as_millis(),
    );

    // Let the staggered first gossip rounds start flowing (a bit over one
    // shuffle period): every row measures with live periodic traffic — and,
    // on sockets, the lazy dials it triggers — competing with requests.
    std::thread::sleep(std::time::Duration::from_millis(2_300));

    // --- Pipelined put throughput ---------------------------------------
    let key_of = |i: usize| Key::from_user_key(&format!("bench-{workers}-{i}"));
    let put_start = Instant::now();
    for i in 0..args.puts {
        let key = key_of(i);
        let contact = plan.contact_for(key, &mut rng);
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
        let contact = plan.contact_for(key, &mut rng);
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

    // --- Warm-up ---------------------------------------------------------
    // Steady state has to be reached before it can be measured: the
    // periodic protocols (shuffle, slicing gossip, anti-entropy) each fan a
    // wave of frames across the whole cluster once per period, and the
    // frame arena and batch pools only reach their high-water once every
    // wave kind has fired *while client ops were in flight*. Run untimed
    // round trips spanning at least one full cycle of the slowest gossip
    // period, then require one pass with zero fresh allocations.
    let warm_keys: Vec<Key> = (0..64)
        .map(|i| Key::from_user_key(&format!("warm-{workers}-{i}")))
        .collect();
    let warm_start = Instant::now();
    let min_warm = std::time::Duration::from_millis(4_600);
    let warm_deadline = warm_start + std::time::Duration::from_secs(30);
    let fresh_allocations =
        |cluster: &Cluster<T>| cluster.arena_fresh_buffers() + cluster.batch_fresh_vectors();
    for warm_pass in 0u64.. {
        let fresh_at_pass_start = fresh_allocations(&cluster);
        for key in &warm_keys {
            let contact = plan.contact_for(*key, &mut rng);
            let _ = cluster.put_via(
                contact,
                *key,
                Version::new(warm_pass + 2),
                Value::filled(128, 8),
                Duration::from_secs(10),
            );
            let _ = cluster.get_via(contact, *key, None, Duration::from_secs(10));
        }
        let clean = fresh_allocations(&cluster) == fresh_at_pass_start;
        let now = Instant::now();
        if (clean && now >= warm_start + min_warm) || now >= warm_deadline {
            break;
        }
    }

    // --- Blocking-API latency --------------------------------------------
    // Slice-aware blocking round trips: submit to a responsible contact and
    // time submit→first-reply. A retry guards the rare in-slice expiry.
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
        let contact = plan.contact_for(key, &mut rng);
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

    // --- Counters + teardown ---------------------------------------------
    let arena_fresh = cluster.arena_fresh_buffers();
    let batch_fresh = cluster.batch_fresh_vectors();
    let mut row: Row = vec![
        ("workers", workers.into()),
        ("nodes", nodes.into()),
        ("spawn_ms", spawn_ms.into()),
        ("spawn_build_ms", (timings.build.as_millis() as u64).into()),
        ("spawn_arm_ms", (timings.arm.as_millis() as u64).into()),
        (
            "spawn_ms_per_node",
            (spawn_ms as f64 / nodes.max(1) as f64).into(),
        ),
        ("puts_submitted", args.puts.into()),
        ("puts_completed", put_acked.into()),
        ("put_throughput_ops_per_s", put_throughput.into()),
        ("gets_submitted", args.gets.into()),
        ("gets_answered", get_answered.into()),
        ("get_hits", get_hits.len().into()),
        ("get_throughput_ops_per_s", get_throughput.into()),
        (
            "put_latency_p50_us",
            percentile(&mut put_lat_us, 0.50).into(),
        ),
        (
            "put_latency_p99_us",
            percentile(&mut put_lat_us, 0.99).into(),
        ),
        (
            "put_latency_p999_us",
            percentile(&mut put_lat_us, 0.999).into(),
        ),
        (
            "get_latency_p50_us",
            percentile(&mut get_lat_us, 0.50).into(),
        ),
        (
            "get_latency_p99_us",
            percentile(&mut get_lat_us, 0.99).into(),
        ),
        (
            "get_latency_p999_us",
            percentile(&mut get_lat_us, 0.999).into(),
        ),
        ("mailbox_saturations", cluster.saturation_events().into()),
    ];
    row.extend(T::transport_columns(&cluster));
    row.extend([
        ("wire_rejects", cluster.wire_reject_count().into()),
        ("arena_fresh_buffers", arena_fresh.into()),
        (
            "arena_recycled_buffers",
            cluster.arena_recycled_buffers().into(),
        ),
        (
            "arena_steady_fresh_delta",
            (arena_fresh - fresh_before_latency).into(),
        ),
        ("batch_fresh_vectors", batch_fresh.into()),
        (
            "batch_steady_fresh_delta",
            (batch_fresh - batches_before_latency).into(),
        ),
    ]);
    let final_nodes = cluster.shutdown();
    let stats_sum =
        |stat: fn(&NodeStats) -> u64| -> u64 { final_nodes.iter().map(|n| stat(n.stats())).sum() };
    let stored_keys: usize = final_nodes
        .iter()
        .map(|n| dataflasks::store::DataStore::len(n.store()))
        .sum();
    row.extend([
        (
            "gossip_messages",
            stats_sum(|s| s.sent(MessageKind::Membership) + s.sent(MessageKind::Slicing)).into(),
        ),
        (
            "ae_chunks_skipped",
            stats_sum(|s| s.ae_chunks_skipped).into(),
        ),
        // Requests refused as more than a dedup window behind their
        // client's newest: recorded, not gated (a non-zero count names what
        // a failed operation may have met).
        ("requests_stale", stats_sum(|s| s.requests_stale).into()),
        ("replica_objects_total", stored_keys.into()),
    ]);
    for (name, value) in &row {
        println!("[{nodes} nodes, workers {workers}] {name}: {value}");
    }
    row
}

/// Prints each row's combined put+get throughput relative to the first
/// (baseline) row.
fn print_scaling_summary(rows: &[Row], transport: &str) {
    let read = |row: &Row, name: &str| cell(row, name).map_or(0.0, Cell::as_f64);
    let combined =
        |row: &Row| read(row, "put_throughput_ops_per_s") + read(row, "get_throughput_ops_per_s");
    let Some(baseline) = rows.first() else { return };
    let base = combined(baseline);
    for row in rows {
        println!(
            "{:>5} nodes, workers {:>2} ({transport}): put+get {:>10.0} ops/s ({:.2}x of the first row)",
            read(row, "nodes"),
            read(row, "workers"),
            combined(row),
            if base > 0.0 { combined(row) / base } else { 0.0 },
        );
    }
}
