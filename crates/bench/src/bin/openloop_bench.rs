//! Open-loop capacity bench: offers load to the pipelined client path at a
//! schedule of fixed arrival rates and finds the throughput knee.
//!
//! Where `cluster_bench` measures *latency-bound* closed-loop
//! numbers (each blocking operation waits for the previous one, so a slow
//! server slows the client and hides its own overload), this bench drives
//! the pipelined `submit_put`/`submit_get` ticket API from a seeded Poisson
//! arrival schedule (`dataflasks_workload::OpenLoopSchedule`): arrivals
//! land whether or not the cluster kept up, latency is measured from each
//! operation's **scheduled arrival** (coordinated-omission-free), and
//! arrivals that find the in-flight cap full are shed and counted rather
//! than silently delayed. Each `(backend, offered rate)` row runs on a
//! fresh warmed cluster of the historical 220-node socket shape; the
//! sweep's achieved-vs-offered curve locates the capacity knee, and a
//! closed-loop blocking baseline (one ticket at a time over the identical
//! operation sequence) is measured per backend into the `history` header so
//! the two numbers can never be confused.
//!
//! ```bash
//! cargo run -p dataflasks-bench --release --bin openloop_bench
//! # CI smoke: two small rates, short rows, no baseline comparison gate
//! cargo run -p dataflasks-bench --release --bin openloop_bench -- \
//!     --rates 300,600 --row-seconds 1 --baseline-ops 50
//! ```

use std::time::Instant;

use dataflasks::core::PipelinedClient;
use dataflasks::net_env::{Cluster, InProcess, Socket};
use dataflasks::prelude::*;
use dataflasks::workload::{OpenLoopSchedule, OpenLoopSpec};
use dataflasks_bench::{
    cell, percentile, publish, run_open_loop, BenchTransport, Cell, ContactPlan, OpenLoopOutcome,
    Row, OPEN_LOOP_RULES,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0x50C4E7;

struct Args {
    nodes: usize,
    slices: u32,
    workers: usize,
    /// Offered load points of the sweep, in operations per second.
    rates: Vec<f64>,
    /// Scheduled duration of each row; the operation count of a row is
    /// `rate * row_seconds`.
    row_seconds: f64,
    read_fraction: f64,
    key_space: usize,
    value_size: usize,
    inflight_cap: usize,
    op_timeout: Duration,
    /// Operations of the closed-loop blocking baseline measured per
    /// backend (0 skips the baseline).
    baseline_ops: usize,
    transport: SocketTransportKind,
}

impl Args {
    fn parse() -> Self {
        let mut args = Self {
            // The historical socket-bench shape: the acceptance bar for
            // capacity numbers is the 220-node loopback cluster.
            nodes: 220,
            slices: 0, // 0 = derive (≈50 nodes per slice)
            workers: 1,
            rates: Vec::new(),
            row_seconds: 4.0,
            read_fraction: 0.95,
            key_space: 200,
            value_size: 128,
            inflight_cap: 1_024,
            op_timeout: Duration::from_secs(2),
            baseline_ops: 2_000,
            transport: SocketTransportKind::Tcp,
        };
        let mut iter = std::env::args().skip(1);
        while let Some(flag) = iter.next() {
            let mut take_usize = |target: &mut usize| {
                *target = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("{flag} needs a numeric value"));
            };
            match flag.as_str() {
                "--nodes" => take_usize(&mut args.nodes),
                "--workers" => take_usize(&mut args.workers),
                "--key-space" => take_usize(&mut args.key_space),
                "--value-size" => take_usize(&mut args.value_size),
                "--inflight-cap" => take_usize(&mut args.inflight_cap),
                "--baseline-ops" => take_usize(&mut args.baseline_ops),
                "--slices" => {
                    let mut v = 0usize;
                    take_usize(&mut v);
                    args.slices = v as u32;
                }
                "--rates" => {
                    let list = iter
                        .next()
                        .unwrap_or_else(|| panic!("--rates needs 1000,2000"));
                    args.rates = list
                        .split(',')
                        .map(|r| r.parse().expect("--rates takes ops/s values"))
                        .collect();
                    assert!(!args.rates.is_empty(), "--rates must name a rate");
                }
                "--row-seconds" => {
                    args.row_seconds = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--row-seconds needs a value"));
                }
                "--read-fraction" => {
                    args.read_fraction = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--read-fraction needs a value"));
                }
                "--op-timeout-ms" => {
                    let mut v = 0usize;
                    take_usize(&mut v);
                    args.op_timeout = Duration::from_millis(v as u64);
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
                other => panic!("unknown flag {other}"),
            }
        }
        if args.rates.is_empty() {
            // Spans both knees on the 1-vCPU reference host: socket
            // saturates between 16k and 24k, async between 24k and 32k.
            args.rates = vec![
                1_000.0, 2_000.0, 4_000.0, 8_000.0, 12_000.0, 16_000.0, 24_000.0, 32_000.0,
            ];
        }
        if args.slices == 0 {
            args.slices = (args.nodes as u32 / 50).max(2);
        }
        args
    }
}

/// A backend the sweep covers: a transport and its name in the artifact.
trait Backend: BenchTransport {
    const NAME: &'static str;
}

impl Backend for InProcess {
    const NAME: &'static str = "async";
}

impl Backend for Socket {
    const NAME: &'static str = "socket";
}

fn main() {
    let args = Args::parse();
    let mut config = NodeConfig::for_system_size(args.nodes, args.slices);
    config.pss.shuffle_period = Duration::from_secs(2);
    config.slicing.gossip_period = Duration::from_secs(4);
    config.replication.anti_entropy_period = Duration::from_secs(3);
    let mut capacity_rng = StdRng::seed_from_u64(SEED);
    let capacities: Vec<u64> = (0..args.nodes)
        .map(|_| capacity_rng.gen_range(100..=10_000))
        .collect();
    let spec = ClusterSpec::new(config, capacities, SEED);
    let plan = ContactPlan::build(&spec);

    let mut rows: Vec<Row> = Vec::new();
    let mut baselines: Vec<(&'static str, f64)> = Vec::new();
    sweep::<InProcess>(&args, &spec, &plan, &mut rows, &mut baselines);
    sweep::<Socket>(&args, &spec, &plan, &mut rows, &mut baselines);

    let transport_name = match args.transport {
        SocketTransportKind::Tcp => "tcp",
        SocketTransportKind::Unix => "unix",
    };
    let history = render_history(&baselines, &args);
    let requested: Vec<Row> = [InProcess::NAME, Socket::NAME]
        .iter()
        .flat_map(|&backend| {
            args.rates.iter().map(move |&rate| {
                vec![
                    ("backend", backend.into()),
                    ("offered_ops_per_s", rate.into()),
                ]
            })
        })
        .collect();
    publish(
        "BENCH_openloop.json",
        &[
            ("workload_mode", "\"open_loop\"".to_string()),
            ("nodes", args.nodes.to_string()),
            ("slices", args.slices.to_string()),
            ("workers", args.workers.to_string()),
            ("transport", format!("\"{transport_name}\"")),
            ("read_fraction", format!("{:.2}", args.read_fraction)),
            ("key_space", args.key_space.to_string()),
            ("value_size", args.value_size.to_string()),
            ("inflight_cap", args.inflight_cap.to_string()),
            ("op_timeout_ms", args.op_timeout.as_millis().to_string()),
            ("seed", SEED.to_string()),
            ("history", history),
        ],
        &rows,
        OPEN_LOOP_RULES,
        &requested,
    );
}

/// Measures `T`'s closed-loop baseline and its offered-load rows, then
/// reports its knee.
fn sweep<T: Backend>(
    args: &Args,
    spec: &ClusterSpec,
    plan: &ContactPlan,
    rows: &mut Vec<Row>,
    baselines: &mut Vec<(&'static str, f64)>,
) {
    let baseline = if args.baseline_ops > 0 {
        let rate = run_blocking_baseline::<T>(args, spec, plan);
        baselines.push((T::NAME, rate));
        rate
    } else {
        0.0
    };
    for &rate in &args.rates {
        rows.push(run_row::<T>(args, spec, plan, rate));
    }
    report_knee(rows, T::NAME, baseline);
}

/// Spawns a fresh cluster of the configured shape on `T`, lets the
/// gossip substrate start flowing, and preloads the key space at version 1.
fn spawn_loaded<T: Backend>(args: &Args, spec: &ClusterSpec, plan: &ContactPlan) -> Cluster<T> {
    let cluster = Cluster::<T>::start_spec_with(spec, T::config(args.workers, 0, args.transport));
    // A bit over one shuffle period: rows measure with live gossip — and
    // the lazy dials it triggers — competing with requests.
    std::thread::sleep(std::time::Duration::from_millis(2_300));

    // Preload every record at version 1 through the pipelined path. The
    // pipeline is kept shallow (16) so the preload barely registers on the
    // cluster-lifetime `inflight_high_water` the rows report. Completions
    // harvested while waiting for a slot are tallied so they are not
    // awaited a second time.
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xF00D);
    let mut tickets = Vec::with_capacity(args.key_space);
    let mut acked: std::collections::HashSet<Ticket> = std::collections::HashSet::new();
    let mut out = Vec::new();
    for record in 0..args.key_space {
        let user_key = WorkloadGenerator::user_key(record);
        let key = Key::from_user_key(&user_key);
        let contact = plan.contact_for(key, &mut rng);
        while cluster.inflight() >= 16 {
            cluster.poll_completions(&mut out);
            if out.is_empty() {
                std::thread::yield_now();
            }
            for completion in out.drain(..) {
                assert!(matches!(completion.outcome, TicketOutcome::Acked(_)));
                acked.insert(completion.ticket);
            }
        }
        let ticket = cluster
            .submit_put(
                Some(contact),
                key,
                Version::new(1),
                Value::filled(args.value_size, (record % 251) as u8),
                Duration::from_secs(10),
            )
            .expect("preload submit");
        tickets.push(ticket);
    }
    for ticket in tickets {
        if acked.contains(&ticket) {
            continue;
        }
        let outcome = cluster
            .await_ticket(ticket, Duration::from_secs(10))
            .expect("preload ack");
        assert!(matches!(outcome, TicketOutcome::Acked(_)));
    }
    cluster
}

/// Measures the closed-loop blocking baseline: the identical operation
/// sequence, one ticket at a time (submit, await, repeat) — the pattern the
/// closed-loop latency benches use. Returns achieved ops/s.
fn run_blocking_baseline<T: Backend>(args: &Args, spec: &ClusterSpec, plan: &ContactPlan) -> f64 {
    let cluster = spawn_loaded::<T>(args, spec, plan);
    let schedule = OpenLoopSchedule::generate(
        &OpenLoopSpec {
            offered_ops_per_s: 1_000.0, // pacing is ignored by the baseline
            operations: args.baseline_ops,
            read_fraction: args.read_fraction,
            key_space: args.key_space,
            distribution: KeyDistribution::Zipfian { theta: 0.99 },
            value_size: args.value_size,
        },
        SEED,
    );
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xB10C);
    let start = Instant::now();
    let mut completed = 0usize;
    for op in schedule.ops() {
        let contact = plan.contact_for(op.key, &mut rng);
        let ticket = match op.kind {
            OperationKind::Read => cluster.submit_get(Some(contact), op.key, None, args.op_timeout),
            _ => cluster.submit_put(
                Some(contact),
                op.key,
                op.version.unwrap_or(Version::new(1)),
                op.value.clone(),
                args.op_timeout,
            ),
        };
        let Ok(ticket) = ticket else { continue };
        if cluster.await_ticket(ticket, args.op_timeout).is_ok() {
            completed += 1;
        }
    }
    let rate = completed as f64 / start.elapsed().as_secs_f64().max(1e-9);
    println!(
        "[{}] closed-loop blocking baseline: {completed}/{} ops, {rate:.0} ops/s",
        T::NAME,
        args.baseline_ops,
    );
    drop(cluster.shutdown());
    rate
}

/// Runs one `(backend, offered rate)` row on a fresh cluster.
fn run_row<T: Backend>(args: &Args, spec: &ClusterSpec, plan: &ContactPlan, rate: f64) -> Row {
    let operations = (rate * args.row_seconds).round() as usize;
    // One seed for every row: rows replay the identical key/kind sequence
    // and differ only in pacing.
    let schedule = OpenLoopSchedule::generate(
        &OpenLoopSpec {
            offered_ops_per_s: rate,
            operations,
            read_fraction: args.read_fraction,
            key_space: args.key_space,
            distribution: KeyDistribution::Zipfian { theta: 0.99 },
            value_size: args.value_size,
        },
        SEED,
    );
    let cluster = spawn_loaded::<T>(args, spec, plan);
    // Counters are cluster-lifetime; snapshot after the preload so the row
    // reports its own routed/shed deltas (the high-water mark stays a
    // lifetime max, but the preload pipelines only 16 deep).
    let routed_before = cluster.completions_routed();
    let sheds_before = cluster.openloop_sheds();
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x09E4);
    let outcome = run_open_loop(
        &cluster,
        &schedule,
        args.inflight_cap,
        args.op_timeout,
        |op| plan.contact_for(op.key, &mut rng),
    );
    let high_water = cluster.inflight_high_water();
    let routed = cluster.completions_routed() - routed_before;
    let sheds = cluster.openloop_sheds() - sheds_before;
    drop(cluster.shutdown());
    row_from_outcome(T::NAME, rate, args, &outcome, high_water, routed, sheds)
}

fn row_from_outcome(
    backend: &'static str,
    rate: f64,
    args: &Args,
    outcome: &OpenLoopOutcome,
    high_water: u64,
    routed: u64,
    sheds: u64,
) -> Row {
    let mut lat = outcome.latencies_us.clone();
    let achieved = outcome.achieved_ops_per_s();
    let row: Row = vec![
        ("backend", backend.into()),
        ("offered_ops_per_s", rate.into()),
        ("ops_scheduled", outcome.scheduled.into()),
        ("ops_submitted", outcome.submitted.into()),
        ("ops_completed", outcome.completed.into()),
        ("op_timeouts", outcome.timeouts.into()),
        ("openloop_sheds", sheds.into()),
        ("inflight_cap", args.inflight_cap.into()),
        ("inflight_high_water", high_water.into()),
        ("completions_routed", routed.into()),
        ("achieved_ops_per_s", achieved.into()),
        ("latency_p50_us", percentile(&mut lat, 0.50).into()),
        ("latency_p99_us", percentile(&mut lat, 0.99).into()),
        ("latency_p999_us", percentile(&mut lat, 0.999).into()),
    ];
    for (name, value) in &row {
        println!("[{backend} @ {rate:.0} ops/s] {name}: {value}");
    }
    row
}

/// Prints the knee of a backend's achieved-vs-offered curve: the highest
/// offered rate the backend still served at ≥90%.
fn report_knee(rows: &[Row], backend: &'static str, baseline: f64) {
    let field = |row: &Row, name: &str| cell(row, name).map_or(0.0, Cell::as_f64);
    let mut knee: Option<(f64, f64)> = None;
    for row in rows
        .iter()
        .filter(|row| cell(row, "backend") == Some(Cell::Str(backend)))
    {
        let offered = field(row, "offered_ops_per_s");
        let achieved = field(row, "achieved_ops_per_s");
        if achieved >= 0.9 * offered {
            knee = Some((offered, achieved));
        }
    }
    match knee {
        Some((offered, achieved)) => {
            let vs = if baseline > 0.0 {
                format!(
                    " ({:.2}x the closed-loop blocking baseline)",
                    achieved / baseline
                )
            } else {
                String::new()
            };
            println!("[{backend}] knee: {achieved:.0} ops/s achieved at {offered:.0} offered{vs}");
        }
        None => println!("[{backend}] knee below the lowest offered rate — all rows overloaded"),
    }
}

/// Renders the `history` header object recording the closed-loop blocking
/// baselines the sweep is compared against.
fn render_history(baselines: &[(&str, f64)], args: &Args) -> String {
    let mut out = String::from("{\n    \"closed_loop_blocking_baseline\": {\n");
    out.push_str(&format!(
        "      \"note\": \"one ticket at a time over the identical operation sequence ({} ops, read fraction {:.2})\",\n",
        args.baseline_ops, args.read_fraction,
    ));
    for (i, (backend, rate)) in baselines.iter().enumerate() {
        let comma = if i + 1 == baselines.len() { "" } else { "," };
        out.push_str(&format!(
            "      \"{backend}_ops_per_s\": {rate:.2}{comma}\n"
        ));
    }
    out.push_str("    }\n  }");
    out
}
