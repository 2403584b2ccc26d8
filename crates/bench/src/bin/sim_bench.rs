//! Simulator scaling baseline: drives a seeded churn + workload scenario
//! through the deterministic discrete-event `Simulation` at each node count
//! of a sweep and writes event throughput, wall-time-per-simulated-second,
//! spawn time and peak RSS to `BENCH_sim.json` — the artifact backing the
//! paper's 100k-node massive-scale regime.
//!
//! Each sweep row runs in a **subprocess** so its peak RSS is its own (the
//! kernel's high-water mark is monotone within a process) and a row that
//! exhausts the host cannot take the whole sweep down with it.
//!
//! ```bash
//! cargo run -p dataflasks-bench --release --bin sim_bench
//! # CI smoke: the 10k row only, reduced workload
//! cargo run -p dataflasks-bench --release --bin sim_bench -- \
//!     --rows 10000 --puts 200 --gets 200
//! ```

use std::time::Instant;

use dataflasks::prelude::*;
use dataflasks_bench::{cell, publish, Cell, Row, SIM_RULES};

/// Per-row metrics, in emission order. The parent process maps subprocess
/// output back onto these `'static` names.
const ROW_FIELDS: &[&str] = &[
    "nodes",
    "slices",
    "cores",
    "spawn_ms",
    "spawn_ms_per_node",
    "sim_seconds",
    "run_wall_ms",
    "wall_ms_per_sim_s",
    "events_dispatched",
    "events_per_s",
    "timer_fires",
    "messages_delivered",
    "messages_dropped",
    "crashes",
    "joins",
    "alive_end",
    "puts_submitted",
    "puts_completed",
    "gets_submitted",
    "gets_answered",
    "get_hits",
    "peak_rss_kb",
];

/// The earlier rows this artifact's `history` header records, each from the
/// same seeded schedule on the same host:
/// - `heap_timers_hashmap_nodes`, the pre-slab, pre-wheel 10k row: every
///   protocol timer funnelled through the global event heap (with a
///   `HashMap` generation probe per fire), nodes addressed through
///   `HashMap<NodeId, SimNode>`, and a fresh alive-list clone per client
///   operation;
/// - `sequential_dispatch`, the sweep as it ran before the simulator
///   dispatched an instant's node rounds on every core: one event at a
///   time, on one thread.
/// - `per_instant_batches`, the sweep as it ran while every simulated
///   instant (and every wheel tick) was a batch of its own, before a batch
///   took a whole lookahead window: the same counts, on two cores.
const HISTORY: &str = concat!(
    "{\n",
    "    \"heap_timers_hashmap_nodes\": {\n",
    "      \"nodes\": 10000,\n",
    "      \"spawn_ms\": 2767,\n",
    "      \"sim_seconds\": 105,\n",
    "      \"run_wall_ms\": 109970,\n",
    "      \"wall_ms_per_sim_s\": 1047.33,\n",
    "      \"events_dispatched\": 8567913,\n",
    "      \"events_per_s\": 77911.37,\n",
    "      \"peak_rss_kb\": 1803488\n",
    "    },\n",
    "    \"sequential_dispatch\": [\n",
    "      {\n",
    "        \"nodes\": 10000,\n",
    "        \"slices\": 50,\n",
    "        \"spawn_ms\": 108,\n",
    "        \"spawn_ms_per_node\": 0.01,\n",
    "        \"sim_seconds\": 105,\n",
    "        \"run_wall_ms\": 34131,\n",
    "        \"wall_ms_per_sim_s\": 325.06,\n",
    "        \"events_dispatched\": 8564569,\n",
    "        \"events_per_s\": 250932.26,\n",
    "        \"timer_fires\": 2309968,\n",
    "        \"messages_delivered\": 6189529,\n",
    "        \"messages_dropped\": 0,\n",
    "        \"crashes\": 100,\n",
    "        \"joins\": 100,\n",
    "        \"alive_end\": 10000,\n",
    "        \"puts_submitted\": 800,\n",
    "        \"puts_completed\": 800,\n",
    "        \"gets_submitted\": 800,\n",
    "        \"gets_answered\": 800,\n",
    "        \"get_hits\": 545,\n",
    "        \"peak_rss_kb\": 323676\n",
    "      },\n",
    "      {\n",
    "        \"nodes\": 50000,\n",
    "        \"slices\": 250,\n",
    "        \"spawn_ms\": 325,\n",
    "        \"spawn_ms_per_node\": 0.01,\n",
    "        \"sim_seconds\": 105,\n",
    "        \"run_wall_ms\": 278240,\n",
    "        \"wall_ms_per_sim_s\": 2649.90,\n",
    "        \"events_dispatched\": 40808141,\n",
    "        \"events_per_s\": 146665.26,\n",
    "        \"timer_fires\": 11550105,\n",
    "        \"messages_delivered\": 29186919,\n",
    "        \"messages_dropped\": 0,\n",
    "        \"crashes\": 500,\n",
    "        \"joins\": 500,\n",
    "        \"alive_end\": 50001,\n",
    "        \"puts_submitted\": 800,\n",
    "        \"puts_completed\": 800,\n",
    "        \"gets_submitted\": 800,\n",
    "        \"gets_answered\": 800,\n",
    "        \"get_hits\": 221,\n",
    "        \"peak_rss_kb\": 2858276\n",
    "      },\n",
    "      {\n",
    "        \"nodes\": 100000,\n",
    "        \"slices\": 500,\n",
    "        \"spawn_ms\": 724,\n",
    "        \"spawn_ms_per_node\": 0.01,\n",
    "        \"sim_seconds\": 105,\n",
    "        \"run_wall_ms\": 915251,\n",
    "        \"wall_ms_per_sim_s\": 8716.68,\n",
    "        \"events_dispatched\": 96173706,\n",
    "        \"events_per_s\": 105079.05,\n",
    "        \"timer_fires\": 23101190,\n",
    "        \"messages_delivered\": 72902304,\n",
    "        \"messages_dropped\": 0,\n",
    "        \"crashes\": 1000,\n",
    "        \"joins\": 1000,\n",
    "        \"alive_end\": 100004,\n",
    "        \"puts_submitted\": 800,\n",
    "        \"puts_completed\": 800,\n",
    "        \"gets_submitted\": 800,\n",
    "        \"gets_answered\": 800,\n",
    "        \"get_hits\": 438,\n",
    "        \"peak_rss_kb\": 9952640\n",
    "      }\n",
    "    ],\n",
    "    \"per_instant_batches\": [\n",
    "      {\n",
    "        \"nodes\": 10000,\n",
    "        \"slices\": 50,\n",
    "        \"cores\": 2,\n",
    "        \"spawn_ms\": 80,\n",
    "        \"spawn_ms_per_node\": 0.01,\n",
    "        \"sim_seconds\": 105,\n",
    "        \"run_wall_ms\": 21465,\n",
    "        \"wall_ms_per_sim_s\": 204.43,\n",
    "        \"events_dispatched\": 8564569,\n",
    "        \"events_per_s\": 399001.58,\n",
    "        \"timer_fires\": 2309968,\n",
    "        \"messages_delivered\": 6189529,\n",
    "        \"messages_dropped\": 0,\n",
    "        \"crashes\": 100,\n",
    "        \"joins\": 100,\n",
    "        \"alive_end\": 10000,\n",
    "        \"puts_submitted\": 800,\n",
    "        \"puts_completed\": 800,\n",
    "        \"gets_submitted\": 800,\n",
    "        \"gets_answered\": 800,\n",
    "        \"get_hits\": 545,\n",
    "        \"peak_rss_kb\": 227460\n",
    "      },\n",
    "      {\n",
    "        \"nodes\": 50000,\n",
    "        \"slices\": 250,\n",
    "        \"cores\": 2,\n",
    "        \"spawn_ms\": 351,\n",
    "        \"spawn_ms_per_node\": 0.01,\n",
    "        \"sim_seconds\": 105,\n",
    "        \"run_wall_ms\": 133289,\n",
    "        \"wall_ms_per_sim_s\": 1269.42,\n",
    "        \"events_dispatched\": 40808141,\n",
    "        \"events_per_s\": 306162.86,\n",
    "        \"timer_fires\": 11550105,\n",
    "        \"messages_delivered\": 29186919,\n",
    "        \"messages_dropped\": 0,\n",
    "        \"crashes\": 500,\n",
    "        \"joins\": 500,\n",
    "        \"alive_end\": 50001,\n",
    "        \"puts_submitted\": 800,\n",
    "        \"puts_completed\": 800,\n",
    "        \"gets_submitted\": 800,\n",
    "        \"gets_answered\": 800,\n",
    "        \"get_hits\": 221,\n",
    "        \"peak_rss_kb\": 2503264\n",
    "      }\n",
    "    ]\n",
    "  }"
);

struct Args {
    rows: Vec<usize>,
    puts: usize,
    gets: usize,
    churn_pct: usize,
    warmup_s: u64,
    slice_nodes: usize,
    seed: u64,
    out: String,
    one_row: Option<usize>,
    legacy_spawn: bool,
}

impl Args {
    fn parse() -> Self {
        let mut args = Self {
            rows: vec![10_000, 50_000, 100_000],
            puts: 800,
            gets: 800,
            churn_pct: 1,
            warmup_s: 60,
            slice_nodes: 200,
            seed: 0x51B3,
            out: "BENCH_sim.json".to_string(),
            one_row: None,
            legacy_spawn: false,
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
                "--puts" => take(&mut args.puts),
                "--gets" => take(&mut args.gets),
                "--churn-pct" => take(&mut args.churn_pct),
                "--warmup-s" => {
                    let mut v = 0usize;
                    take(&mut v);
                    args.warmup_s = v as u64;
                }
                "--slice-nodes" => take(&mut args.slice_nodes),
                "--seed" => {
                    let mut v = 0usize;
                    take(&mut v);
                    args.seed = v as u64;
                }
                "--rows" => {
                    let list = iter
                        .next()
                        .unwrap_or_else(|| panic!("--rows needs 10000,50000"));
                    args.rows = list
                        .split(',')
                        .map(|n| n.parse().expect("--rows takes node counts"))
                        .collect();
                    assert!(!args.rows.is_empty(), "--rows must name a node count");
                }
                "--out" => args.out = iter.next().expect("--out needs a path"),
                "--one-row" => {
                    let mut v = 0usize;
                    take(&mut v);
                    args.one_row = Some(v);
                }
                "--legacy-spawn" => args.legacy_spawn = true,
                other => panic!("unknown flag {other}"),
            }
        }
        args
    }

    /// The flags a child row process needs to reproduce this configuration.
    fn child_flags(&self, nodes: usize) -> Vec<String> {
        let mut flags = vec![
            "--one-row".to_string(),
            nodes.to_string(),
            "--puts".to_string(),
            self.puts.to_string(),
            "--gets".to_string(),
            self.gets.to_string(),
            "--churn-pct".to_string(),
            self.churn_pct.to_string(),
            "--warmup-s".to_string(),
            self.warmup_s.to_string(),
            "--slice-nodes".to_string(),
            self.slice_nodes.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
        ];
        if self.legacy_spawn {
            flags.push("--legacy-spawn".to_string());
        }
        flags
    }
}

fn main() {
    let args = Args::parse();
    if let Some(nodes) = args.one_row {
        // Child mode: run one row in-process and print it as parseable lines.
        for (name, value) in run_row(&args, nodes) {
            println!("SIMROW {name} {value}");
        }
        return;
    }

    let exe = std::env::current_exe().expect("current_exe");
    let rows: Vec<Row> = args
        .rows
        .iter()
        .map(|&nodes| {
            println!("--- sim_bench row: {nodes} nodes ---");
            let output = std::process::Command::new(&exe)
                .args(args.child_flags(nodes))
                .output()
                .expect("spawn sim_bench row subprocess");
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            assert!(
                output.status.success(),
                "row subprocess for {nodes} nodes failed: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            parse_row(&stdout)
        })
        .collect();

    for row in &rows {
        let metric = |name: &str| cell(row, name).map_or(0.0, Cell::as_f64);
        println!(
            "nodes {:>7}: {:>10.0} events/s, {:>7.1} wall-ms per sim-s, spawn {:>6.0} ms, peak RSS {:>8.0} kB",
            metric("nodes"),
            metric("events_per_s"),
            metric("wall_ms_per_sim_s"),
            metric("spawn_ms"),
            metric("peak_rss_kb"),
        );
    }
    let requested: Vec<Row> = args
        .rows
        .iter()
        .map(|&nodes| vec![("nodes", nodes.into())])
        .collect();
    publish(
        &args.out,
        &[
            ("seed", args.seed.to_string()),
            ("churn_pct", args.churn_pct.to_string()),
            ("history", HISTORY.to_string()),
        ],
        &rows,
        SIM_RULES,
        &requested,
    );
}

/// Maps `SIMROW name value` subprocess lines back onto the static field
/// names and their types (a value with a decimal point is a measured
/// quantity, one without a count). Order and completeness are asserted, so
/// a schema drift between parent and child fails loudly.
fn parse_row(stdout: &str) -> Row {
    let mut row = Row::new();
    for line in stdout.lines() {
        let Some(rest) = line.strip_prefix("SIMROW ") else {
            continue;
        };
        let (name, value) = rest
            .split_once(' ')
            .expect("SIMROW line has a name and a value");
        let value = match value.parse() {
            Ok(count) => Cell::Int(count),
            Err(_) => Cell::Float(value.parse().expect("SIMROW value is numeric")),
        };
        let field = ROW_FIELDS
            .iter()
            .find(|f| **f == name)
            .unwrap_or_else(|| panic!("unknown sim_bench row field {name}"));
        row.push((*field, value));
    }
    assert_eq!(
        row.len(),
        ROW_FIELDS.len(),
        "row subprocess emitted an incomplete metric set"
    );
    row
}

/// Runs the seeded churn + workload scenario at `nodes` nodes and returns
/// the row. The schedule is identical at every scale (fixed operation count,
/// churn proportional to the cluster): warm-up, a churn window with the
/// write workload riding on it, reads against the written keys, drain.
fn run_row(args: &Args, nodes: usize) -> Row {
    // Constant slice size (~200 nodes by default), protocol periods at their
    // defaults (1 s shuffle and gossip, 5 s anti-entropy). A slightly wider
    // global fanout than the figure experiments (4 vs 3) keeps the epidemic
    // slice search reliable at these scales: with fanout 3 the TTL-bounded
    // walk strands ~1/3 of requests short of a 50-node slice at 10k nodes,
    // while fanout 4 over 200-node slices answers every operation up to 100k.
    let slices = (nodes / args.slice_nodes).max(2) as u32;
    let mut config = NodeConfig::for_system_size(nodes, slices);
    config.dissemination.global_fanout = 4;

    // A short client timeout so any miss resolves well inside the drain
    // window: every get reaches a terminal state (hit or miss) by the end of
    // the schedule, which is what the artifact's completion rules check.
    let mut sim = Simulation::new(SimConfig {
        seed: args.seed ^ ((nodes as u64) << 32),
        client_timeout: Duration::from_secs(5),
    });

    let spawn_start = Instant::now();
    spawn(args, &mut sim, nodes, config);
    let spawn_ms = spawn_start.elapsed().as_millis();
    println!("spawned {nodes} nodes ({slices} slices) in {spawn_ms} ms");

    // Warm-up: bootstrap views widen and slice estimates settle enough for
    // request routing (60 s, like the figure experiments; the scenario then
    // measures the converged system under churn — the paper's regime).
    let run_start = Instant::now();
    sim.run_for(Duration::from_secs(args.warmup_s));

    // Churn window: `churn_pct` percent of the cluster crashes and as many
    // fresh nodes join, spread over 20 s.
    let churn = nodes * args.churn_pct / 100;
    let churn_start = sim.now();
    sim.schedule_churn(
        churn_start,
        churn_start + Duration::from_secs(20),
        churn,
        churn,
    );

    // The write workload rides on the churn window; reads follow their key's
    // write by 15 s, comfortably after dissemination.
    let client = sim.add_client();
    let key_of = |i: usize| Key::from_user_key(&format!("sim-bench-{i}"));
    let put_gap_ms = 20_000 / args.puts.max(1) as u64;
    for i in 0..args.puts {
        sim.schedule_put(
            churn_start + Duration::from_millis(i as u64 * put_gap_ms),
            client,
            key_of(i),
            Version::new(1),
            Value::filled(128, 7),
        );
    }
    let get_gap_ms = 20_000 / args.gets.max(1) as u64;
    for i in 0..args.gets {
        sim.schedule_get(
            churn_start + Duration::from_secs(15) + Duration::from_millis(i as u64 * get_gap_ms),
            client,
            key_of(i % args.puts.max(1)),
            None,
        );
    }

    // Churn + writes (20 s), reads (15–35 s), drain to 45 s — enough past
    // the last get for every straggler to hit its 5 s client timeout.
    sim.run_for(Duration::from_secs(45));
    let run_wall_ms = run_start.elapsed().as_millis();
    let sim_seconds = args.warmup_s + 45;

    let stats = sim.client(client).expect("bench client registered").stats();
    let populations = sim.slice_populations();
    eprintln!(
        "[nodes {nodes}] populated slices {} of {slices}, population min {} max {}, timeouts {}",
        populations.len(),
        populations.iter().map(|&(_, n)| n).min().unwrap_or(0),
        populations.iter().map(|&(_, n)| n).max().unwrap_or(0),
        stats.timeouts,
    );
    // Provenance: the simulator dispatches each batch on this many threads.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let events = sim.events_dispatched();
    let events_per_s = events as f64 / (run_wall_ms as f64 / 1_000.0).max(1e-9);
    let row: Row = vec![
        ("nodes", nodes.into()),
        ("slices", (slices as u64).into()),
        ("cores", cores.into()),
        ("spawn_ms", (spawn_ms as u64).into()),
        (
            "spawn_ms_per_node",
            (spawn_ms as f64 / nodes.max(1) as f64).into(),
        ),
        ("sim_seconds", sim_seconds.into()),
        ("run_wall_ms", (run_wall_ms as u64).into()),
        (
            "wall_ms_per_sim_s",
            (run_wall_ms as f64 / sim_seconds as f64).into(),
        ),
        ("events_dispatched", events.into()),
        ("events_per_s", events_per_s.into()),
        ("timer_fires", sim.timer_fires().into()),
        ("messages_delivered", sim.messages_delivered().into()),
        ("messages_dropped", sim.messages_dropped().into()),
        ("crashes", churn.into()),
        ("joins", churn.into()),
        ("alive_end", sim.alive_count().into()),
        ("puts_submitted", args.puts.into()),
        ("puts_completed", stats.puts_acked.into()),
        ("gets_submitted", args.gets.into()),
        ("gets_answered", (stats.gets_hit + stats.gets_missed).into()),
        ("get_hits", stats.gets_hit.into()),
        ("peak_rss_kb", peak_rss_kb().into()),
    ];
    for (name, value) in &row {
        println!("[nodes {nodes}] {name}: {value}");
    }
    row
}

fn spawn(args: &Args, sim: &mut Simulation, nodes: usize, config: NodeConfig) {
    if args.legacy_spawn {
        // Serial one-node-at-a-time spawn (the pre-parallel baseline). Its
        // capacities come from a side stream so the loop matches the default
        // path's draws; the node seeds still differ, so the two paths produce
        // different (each internally deterministic) runs.
        use rand::{Rng, SeedableRng};
        let mut capacities = rand::rngs::StdRng::seed_from_u64(args.seed ^ 0xCAFE);
        for _ in 0..nodes {
            let capacity = capacities.gen_range(100..=10_000);
            sim.spawn_node(config, capacity);
        }
        return;
    }
    sim.spawn_cluster(nodes, config);
}

/// The process's peak resident set in kB (`VmHWM`), or 0 where
/// `/proc/self/status` is unavailable (non-Linux hosts).
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| {
            line.strip_prefix("VmHWM:")?
                .trim()
                .trim_end_matches(" kB")
                .parse()
                .ok()
        })
        .unwrap_or(0)
}
