//! Experiment harness shared by the figure-regeneration binaries and the
//! Criterion benches.
//!
//! Every experiment follows the same skeleton (build a simulated cluster, let
//! the gossip substrate converge, drive a YCSB-style workload, report the
//! per-node message statistics), so the harness lives here and the binaries
//! only differ in the parameter sweep they run. See `DESIGN.md` §4 for the
//! experiment-to-paper mapping and `EXPERIMENTS.md` for recorded results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dataflasks::prelude::*;
use dataflasks::sim::Distribution;

/// Parameters of one write-workload experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Number of nodes in the simulated cluster.
    pub nodes: usize,
    /// Number of slices the system is divided into.
    pub slices: u32,
    /// Number of write operations driven through the cluster.
    pub operations: usize,
    /// Virtual time granted to the gossip substrate before the workload
    /// starts (peer sampling and slicing must converge first).
    pub warmup: Duration,
    /// Virtual time granted after the last operation for dissemination to
    /// finish.
    pub drain: Duration,
    /// Interval between consecutive client operations.
    pub op_interval: Duration,
    /// Payload size of written values, in bytes.
    pub value_size: usize,
    /// Whether anti-entropy repair runs during the experiment (the paper's
    /// configuration leaves it off; the churn experiment turns it on).
    pub anti_entropy: bool,
    /// Seed controlling every random choice of the run.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The configuration skeleton used by the paper's two figures: a
    /// write-only load over a warmed-up cluster with random contact
    /// selection and no anti-entropy.
    #[must_use]
    pub fn paper_default(nodes: usize, slices: u32, operations: usize) -> Self {
        Self {
            nodes,
            slices,
            operations,
            warmup: Duration::from_secs(60),
            drain: Duration::from_secs(30),
            op_interval: Duration::from_millis(50),
            value_size: 128,
            anti_entropy: false,
            seed: 0xDF2013,
        }
    }
}

/// Sweep fields that are counts (or identifiers) by construction: they are
/// emitted as JSON integers (`"dials": 62`), never as decorated floats
/// (`62.00`), so downstream tooling — and the CI guard's exact greps —
/// parse them as the integers they are. Every measured quantity (rates,
/// latencies, per-node ratios) keeps two decimals.
const INTEGER_FIELDS: &[&str] = &[
    "workers",
    "nodes",
    "slices",
    "spawn_ms",
    "spawn_build_ms",
    "spawn_arm_ms",
    "puts_submitted",
    "puts_completed",
    "gets_submitted",
    "gets_answered",
    "get_hits",
    "mailbox_saturations",
    "dials",
    "dial_retries",
    "wire_rejects",
    "gossip_messages",
    "ae_chunks_skipped",
    "replica_objects_total",
    "arena_fresh_buffers",
    "arena_recycled_buffers",
    "arena_steady_fresh_delta",
    "batch_fresh_vectors",
    "sim_seconds",
    "run_wall_ms",
    "events_dispatched",
    "timer_fires",
    "messages_delivered",
    "messages_dropped",
    "crashes",
    "joins",
    "alive_end",
    "peak_rss_kb",
    "ops_scheduled",
    "ops_submitted",
    "ops_completed",
    "op_timeouts",
    "openloop_sheds",
    "inflight_cap",
    "inflight_high_water",
    "completions_routed",
];

/// Renders one metric line of the sweep-JSON schema shared by
/// `BENCH_async.json` and `BENCH_socket.json`: count fields (see
/// `INTEGER_FIELDS`) as true JSON integers, measured quantities with two
/// decimals.
#[must_use]
pub fn render_sweep_metric(name: &str, value: f64) -> String {
    if INTEGER_FIELDS.contains(&name) {
        format!("\"{name}\": {value:.0}")
    } else {
        format!("\"{name}\": {value:.2}")
    }
}

/// One row of a worker-sweep bench run: metric name → value, in emission
/// order (the first entry is conventionally `workers`).
pub type SweepRow = Vec<(&'static str, f64)>;

/// Writes a worker-sweep bench artifact in the JSON schema shared by
/// `BENCH_async.json` and `BENCH_socket.json`: the pre-rendered top-level
/// fields, then one object per sweep row (each metric through
/// [`render_sweep_metric`]).
///
/// `header` values are inserted verbatim, so callers render them as JSON
/// themselves (`"220.00"`, `"\"tcp\""`).
///
/// # Panics
///
/// Panics if the artifact cannot be written.
pub fn write_sweep_json(path: &str, header: &[(&str, String)], rows: &[SweepRow]) {
    let mut json = String::from("{\n");
    for (name, value) in header {
        json.push_str(&format!("  \"{name}\": {value},\n"));
    }
    json.push_str("  \"sweep\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str("    {\n");
        for (j, (name, value)) in row.iter().enumerate() {
            let comma = if j + 1 == row.len() { "" } else { "," };
            let metric = render_sweep_metric(name, *value);
            json.push_str(&format!("      {metric}{comma}\n"));
        }
        let comma = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!("    }}{comma}\n"));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(path, &json).unwrap_or_else(|error| panic!("write {path}: {error}"));
    println!("wrote {path}");
}

/// One row of a mixed-type sweep: metric name → pre-rendered JSON value
/// (`"12"`, `"3.50"`, `"\"socket\""`). Used by artifacts whose rows carry
/// non-numeric columns (the open-loop sweep tags every row with its
/// backend).
pub type RawSweepRow = Vec<(&'static str, String)>;

/// Like [`write_sweep_json`], but the row values are inserted verbatim, so
/// rows can mix integers, floats and strings. Render numeric fields through
/// [`render_sweep_metric`] to keep the integer/decimal convention.
///
/// # Panics
///
/// Panics if the artifact cannot be written.
pub fn write_raw_sweep_json(path: &str, header: &[(&str, String)], rows: &[RawSweepRow]) {
    let mut json = String::from("{\n");
    for (name, value) in header {
        json.push_str(&format!("  \"{name}\": {value},\n"));
    }
    json.push_str("  \"sweep\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str("    {\n");
        for (j, (name, value)) in row.iter().enumerate() {
            let comma = if j + 1 == row.len() { "" } else { "," };
            json.push_str(&format!("      \"{name}\": {value}{comma}\n"));
        }
        let comma = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!("    }}{comma}\n"));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(path, &json).unwrap_or_else(|error| panic!("write {path}: {error}"));
    println!("wrote {path}");
}

/// What one open-loop run produced (see [`run_open_loop`]).
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopOutcome {
    /// Operations in the schedule.
    pub scheduled: usize,
    /// Operations actually submitted (scheduled minus sheds and submit
    /// failures).
    pub submitted: usize,
    /// Operations that completed (acked puts, answered gets — a definitive
    /// miss counts as an answer).
    pub completed: usize,
    /// Operations whose ticket expired without any reply.
    pub timeouts: usize,
    /// Arrivals dropped because the in-flight cap was reached — the
    /// overload signal of an open-loop run (a closed-loop harness would
    /// silently stretch the schedule instead).
    pub shed: usize,
    /// Per-completion latency in microseconds, measured from each
    /// operation's **scheduled arrival** (not its submission), so time an
    /// operation spent waiting behind a stalled pipeline is charged to it —
    /// the coordinated-omission-free convention.
    pub latencies_us: Vec<f64>,
    /// Wall-clock span from the first scheduled arrival to the last
    /// harvested completion.
    pub wall: std::time::Duration,
}

impl OpenLoopOutcome {
    /// Achieved throughput: completions over the measured wall span.
    #[must_use]
    pub fn achieved_ops_per_s(&self) -> f64 {
        self.completed as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Drives one [`OpenLoopSchedule`] through a pipelined client: submits each
/// operation at (or as soon as possible after) its scheduled arrival via
/// `submit_put`/`submit_get` to the contact `contact_for` picks, harvests
/// completions with `poll_completions` between arrivals, and sheds arrivals
/// that find `inflight_cap` operations already in flight (counted, never
/// queued — queueing would back-pressure the schedule and hide overload).
/// After the last arrival, waits up to `op_timeout` plus a grace for the
/// stragglers.
pub fn run_open_loop<C: PipelinedClient + ?Sized>(
    client: &C,
    schedule: &dataflasks::workload::OpenLoopSchedule,
    inflight_cap: usize,
    op_timeout: Duration,
    mut contact_for: impl FnMut(&dataflasks::workload::OpenLoopOp) -> NodeId,
) -> OpenLoopOutcome {
    let mut arrivals: std::collections::HashMap<RequestId, u64> =
        std::collections::HashMap::with_capacity(schedule.ops().len());
    let mut outcome = OpenLoopOutcome {
        scheduled: schedule.ops().len(),
        submitted: 0,
        completed: 0,
        timeouts: 0,
        shed: 0,
        latencies_us: Vec::with_capacity(schedule.ops().len()),
        wall: std::time::Duration::ZERO,
    };
    let epoch = std::time::Instant::now();
    let mut last_completion = std::time::Duration::ZERO;
    let mut harvest: Vec<dataflasks::core::Completion> = Vec::new();
    fn absorb(
        harvest: &mut Vec<dataflasks::core::Completion>,
        arrivals: &mut std::collections::HashMap<RequestId, u64>,
        outcome: &mut OpenLoopOutcome,
        last_completion: &mut std::time::Duration,
        now_micros: u64,
    ) {
        for completion in harvest.drain(..) {
            let Some(arrival) = arrivals.remove(&completion.ticket.request_id()) else {
                continue;
            };
            match completion.outcome {
                TicketOutcome::Acked(_) | TicketOutcome::Hit(_) | TicketOutcome::Miss => {
                    outcome.completed += 1;
                    outcome
                        .latencies_us
                        .push(now_micros.saturating_sub(arrival) as f64);
                    *last_completion = std::time::Duration::from_micros(now_micros);
                }
                TicketOutcome::TimedOut => outcome.timeouts += 1,
            }
        }
    }

    for op in schedule.ops() {
        // Pace to the schedule, harvesting while we wait. Waits are spent
        // sleeping in sub-millisecond slices (bounding both the harvest
        // granularity and the pacing error), never spinning: on a
        // single-core host a spinning submitter would starve the very
        // workers it is trying to measure.
        loop {
            let now = epoch.elapsed();
            let now_micros = now.as_micros() as u64;
            if now_micros >= op.arrival_micros {
                break;
            }
            client.poll_completions(&mut harvest);
            absorb(
                &mut harvest,
                &mut arrivals,
                &mut outcome,
                &mut last_completion,
                now_micros,
            );
            let remaining = op.arrival_micros - now_micros;
            if remaining > 200 {
                std::thread::sleep(std::time::Duration::from_micros(remaining.min(500)));
            } else {
                std::thread::yield_now();
            }
        }
        if client.inflight() >= inflight_cap {
            client.note_shed();
            outcome.shed += 1;
            continue;
        }
        let submitted = match op.kind {
            OperationKind::Read => {
                client.submit_get(Some(contact_for(op)), op.key, None, op_timeout)
            }
            OperationKind::Update | OperationKind::Insert => client.submit_put(
                Some(contact_for(op)),
                op.key,
                op.version.unwrap_or(Version::new(1)),
                op.value.clone(),
                op_timeout,
            ),
        };
        if let Ok(ticket) = submitted {
            arrivals.insert(ticket.request_id(), op.arrival_micros);
            outcome.submitted += 1;
        }
    }

    // Post-schedule drain: stragglers get their full timeout plus a grace.
    let drain_deadline = std::time::Instant::now()
        + std::time::Duration::from_millis(op_timeout.as_millis())
        + std::time::Duration::from_secs(2);
    while client.inflight() > 0 && std::time::Instant::now() < drain_deadline {
        client.poll_completions(&mut harvest);
        let now_micros = epoch.elapsed().as_micros() as u64;
        absorb(
            &mut harvest,
            &mut arrivals,
            &mut outcome,
            &mut last_completion,
            now_micros,
        );
        if client.inflight() > 0 {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
    client.poll_completions(&mut harvest);
    let now_micros = epoch.elapsed().as_micros() as u64;
    absorb(
        &mut harvest,
        &mut arrivals,
        &mut outcome,
        &mut last_completion,
        now_micros,
    );
    outcome.wall = last_completion.max(std::time::Duration::from_millis(1));
    outcome
}

/// Prints a sweep's combined put+get throughput per row, relative to the
/// first (baseline) row. `suffix` is appended to each row label (the socket
/// bench names its transport there).
pub fn print_scaling_summary(rows: &[SweepRow], suffix: &str) {
    let metric = |row: &SweepRow, name: &str| -> f64 {
        row.iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let Some(baseline) = rows.first() else { return };
    let base =
        metric(baseline, "put_throughput_ops_per_s") + metric(baseline, "get_throughput_ops_per_s");
    for row in rows {
        let combined =
            metric(row, "put_throughput_ops_per_s") + metric(row, "get_throughput_ops_per_s");
        println!(
            "workers {:>2}{suffix}: put+get {:>10.0} ops/s ({:.2}x of the {}-worker baseline)",
            metric(row, "workers"),
            combined,
            if base > 0.0 { combined / base } else { 0.0 },
            metric(baseline, "workers"),
        );
    }
}

/// Drains environment replies until `total` distinct requests completed
/// (first matching reply wins), completions stop making progress (a raw
/// epidemic search can die of TTL; clients would retry), or a generous cap
/// expires. Returns the completion count and the elapsed time since `start`
/// at the last completion — the honest numerator and denominator for the
/// throughput the scaling benches report.
pub fn await_completions<E: Environment + ?Sized>(
    env: &mut E,
    start: std::time::Instant,
    total: usize,
    mut matches: impl FnMut(&dataflasks::core::ClientReply) -> bool,
) -> (usize, std::time::Duration) {
    let mut done: std::collections::HashSet<RequestId> =
        std::collections::HashSet::with_capacity(total);
    let cap = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let progress_grace = std::time::Duration::from_secs(3);
    let mut last_progress = std::time::Instant::now();
    let mut elapsed_at_last = start.elapsed();
    while done.len() < total && std::time::Instant::now() < cap {
        for reply in env.drain_effects(Duration::from_millis(200)) {
            if matches(&reply) && done.insert(reply.request) {
                last_progress = std::time::Instant::now();
                elapsed_at_last = start.elapsed();
            }
        }
        if last_progress.elapsed() > progress_grace {
            break;
        }
    }
    (
        done.len(),
        elapsed_at_last.max(std::time::Duration::from_millis(1)),
    )
}

/// The `q`-quantile of the samples (sorts in place).
#[must_use]
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let index = ((samples.len() - 1) as f64 * q).round() as usize;
    samples[index]
}

/// The measurements extracted from one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Number of nodes simulated.
    pub nodes: usize,
    /// Number of slices configured.
    pub slices: u32,
    /// Number of operations driven.
    pub operations: usize,
    /// Per-node request messages (sent + received requests and replies) —
    /// the paper's Figure 3/4 metric.
    pub request_messages_per_node: Distribution,
    /// Per-node total messages including background gossip.
    pub total_messages_per_node: Distribution,
    /// Fraction of operations that completed successfully.
    pub success_ratio: f64,
    /// Mean number of replicas holding each written object at the end.
    pub mean_replication: f64,
    /// Number of distinct slices that ended up populated.
    pub populated_slices: usize,
}

impl ExperimentResult {
    /// The CSV header matching [`Self::to_csv_row`].
    #[must_use]
    pub fn csv_header() -> &'static str {
        "nodes,slices,operations,request_msgs_per_node_mean,request_msgs_per_node_stddev,total_msgs_per_node_mean,success_ratio,mean_replication,populated_slices"
    }

    /// One CSV row of the result.
    #[must_use]
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{:.1},{:.1},{:.1},{:.3},{:.1},{}",
            self.nodes,
            self.slices,
            self.operations,
            self.request_messages_per_node.mean,
            self.request_messages_per_node.std_dev,
            self.total_messages_per_node.mean,
            self.success_ratio,
            self.mean_replication,
            self.populated_slices
        )
    }
}

/// Runs one write-only-workload experiment (the setting of Figures 3 and 4).
#[must_use]
pub fn run_write_experiment(config: ExperimentConfig) -> ExperimentResult {
    let mut node_config = NodeConfig::for_system_size(config.nodes, config.slices);
    if !config.anti_entropy {
        node_config = node_config.without_anti_entropy();
    }
    let mut sim = Simulation::new(SimConfig {
        seed: config.seed,
        ..SimConfig::default()
    });
    sim.spawn_cluster(config.nodes, node_config);
    sim.run_for(config.warmup);

    let client = sim.add_client();
    let spec = WorkloadSpec::write_only(config.operations, 0).with_value_size(config.value_size);
    let mut generator = WorkloadGenerator::new(spec, config.seed ^ 0x5EED);
    let operations: Vec<Operation> = generator.load_phase().collect();
    let mut written_keys = Vec::with_capacity(operations.len());
    let mut at = sim.now();
    for op in operations {
        written_keys.push(op.key);
        at += config.op_interval;
        sim.schedule_put(
            at,
            client,
            op.key,
            op.version.unwrap_or(Version::new(1)),
            op.value,
        );
    }
    sim.run_until(at + config.drain);

    let report = sim.cluster_report();
    let mean_replication = if written_keys.is_empty() {
        0.0
    } else {
        written_keys
            .iter()
            .map(|&k| sim.replication_factor(k) as f64)
            .sum::<f64>()
            / written_keys.len() as f64
    };
    ExperimentResult {
        nodes: config.nodes,
        slices: config.slices,
        operations: config.operations,
        request_messages_per_node: report.request_messages_per_node,
        total_messages_per_node: report.total_messages_per_node,
        success_ratio: sim.success_ratio(),
        mean_replication,
        populated_slices: sim.slice_populations().len(),
    }
}

/// The node counts swept by the paper's figures.
pub const PAPER_NODE_COUNTS: [usize; 6] = [500, 1000, 1500, 2000, 2500, 3000];

/// Number of objects each slice is provisioned for when sizing the workload
/// (the YCSB load is proportional to the system capacity, see DESIGN.md §4).
pub const OBJECTS_PER_SLICE: usize = 40;

/// Builds the Figure 3 configuration for a given system size: a constant
/// number of slices (ten, as in the paper), so the system capacity — and the
/// write-only load filling it — stays constant across the sweep.
#[must_use]
pub fn figure3_config(nodes: usize) -> ExperimentConfig {
    let slices = 10;
    ExperimentConfig::paper_default(nodes, slices, OBJECTS_PER_SLICE * slices as usize)
}

/// Builds the Figure 4 configuration for a given system size: the number of
/// slices grows proportionally to the node count (constant slice size of 50
/// nodes, i.e. constant replication factor), so the capacity — and the load —
/// grows with the system.
#[must_use]
pub fn figure4_config(nodes: usize) -> ExperimentConfig {
    let slices = (nodes / 50).max(1) as u32;
    ExperimentConfig::paper_default(nodes, slices, OBJECTS_PER_SLICE * slices as usize)
}

/// Runs a sweep and prints one CSV row per system size (plus the header).
pub fn run_sweep<F>(label: &str, node_counts: &[usize], config_for: F) -> Vec<ExperimentResult>
where
    F: Fn(usize) -> ExperimentConfig,
{
    println!("# {label}");
    println!("{}", ExperimentResult::csv_header());
    let mut results = Vec::with_capacity(node_counts.len());
    for &nodes in node_counts {
        let result = run_write_experiment(config_for(nodes));
        println!("{}", result.to_csv_row());
        results.push(result);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_configs_follow_the_paper_scaling() {
        let f3_small = figure3_config(500);
        let f3_large = figure3_config(3000);
        assert_eq!(f3_small.slices, 10);
        assert_eq!(f3_large.slices, 10);
        assert_eq!(f3_small.operations, f3_large.operations);

        let f4_small = figure4_config(500);
        let f4_large = figure4_config(3000);
        assert_eq!(f4_small.slices, 10);
        assert_eq!(f4_large.slices, 60);
        assert!(f4_large.operations > f4_small.operations);
        assert_eq!(f4_large.operations, OBJECTS_PER_SLICE * 60);
    }

    #[test]
    fn small_write_experiment_produces_consistent_results() {
        let mut config = ExperimentConfig::paper_default(40, 4, 20);
        config.warmup = Duration::from_secs(40);
        config.drain = Duration::from_secs(20);
        let result = run_write_experiment(config);
        assert_eq!(result.nodes, 40);
        assert_eq!(result.operations, 20);
        assert!(
            result.success_ratio > 0.8,
            "success {}",
            result.success_ratio
        );
        assert!(
            result.mean_replication >= 1.0,
            "replication {}",
            result.mean_replication
        );
        assert!(result.request_messages_per_node.mean > 0.0);
        assert!(
            result.total_messages_per_node.mean >= result.request_messages_per_node.mean,
            "total must include gossip"
        );
        assert!(result.populated_slices >= 2);
        let row = result.to_csv_row();
        assert_eq!(
            row.split(',').count(),
            ExperimentResult::csv_header().split(',').count()
        );
    }

    #[test]
    fn csv_header_and_row_have_matching_arity() {
        let result = ExperimentResult {
            nodes: 1,
            slices: 1,
            operations: 0,
            request_messages_per_node: Distribution::from_samples(&[1.0]),
            total_messages_per_node: Distribution::from_samples(&[2.0]),
            success_ratio: 1.0,
            mean_replication: 0.0,
            populated_slices: 1,
        };
        assert_eq!(
            result.to_csv_row().split(',').count(),
            ExperimentResult::csv_header().split(',').count()
        );
    }
}
