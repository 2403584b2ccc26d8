//! Experiment harness shared by the figure-regeneration binaries and the
//! Criterion benches.
//!
//! Every experiment follows the same skeleton (build a simulated cluster, let
//! the gossip substrate converge, drive a YCSB-style workload, report the
//! per-node message statistics), so the harness lives here and the binaries
//! only differ in the parameter sweep they run. README.md's "Benchmarks and
//! experiments" section names the artifact or paper figure each binary
//! regenerates.
//!
//! The artifact half ([`Cell`], [`Row`], [`Rule`], [`publish`]) is shared by
//! every binary that writes a `BENCH_*.json`: one writer, and the checks a
//! run must pass before its binary exits zero.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dataflasks::net_env::{InProcess, Socket, Transport};
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

/// One value of an artifact row, typed by what its column means: a count
/// renders as a JSON integer (`"dials": 62`), a measured quantity (rate,
/// latency, ratio) with two decimals (`"put_latency_p50_us": 79.40`), a
/// label as a JSON string (`"backend": "async"`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// A count or an identifier.
    Int(u64),
    /// A measured quantity.
    Float(f64),
    /// A label.
    Str(&'static str),
}

impl Cell {
    /// The cell as a number (a label reads as zero).
    #[must_use]
    pub fn as_f64(self) -> f64 {
        match self {
            Self::Int(value) => value as f64,
            Self::Float(value) => value,
            Self::Str(_) => 0.0,
        }
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Int(value) => write!(f, "{value}"),
            Self::Float(value) => write!(f, "{value:.2}"),
            Self::Str(label) => write!(f, "\"{label}\""),
        }
    }
}

impl From<u64> for Cell {
    fn from(value: u64) -> Self {
        Self::Int(value)
    }
}

impl From<usize> for Cell {
    fn from(value: usize) -> Self {
        Self::Int(value as u64)
    }
}

impl From<f64> for Cell {
    fn from(value: f64) -> Self {
        Self::Float(value)
    }
}

impl From<&'static str> for Cell {
    fn from(label: &'static str) -> Self {
        Self::Str(label)
    }
}

/// One row of a bench artifact: column name → value, in emission order.
pub type Row = Vec<(&'static str, Cell)>;

/// The value of `column` in `row`, if the row has that column.
#[must_use]
pub fn cell(row: &[(&'static str, Cell)], column: &str) -> Option<Cell> {
    row.iter()
        .find(|(name, _)| *name == column)
        .map(|&(_, value)| value)
}

/// Renders a bench artifact in the schema every `BENCH_*.json` shares: the
/// top-level header fields, then one object per row under `"sweep"`.
/// `header` values are inserted verbatim, so callers render them as JSON
/// themselves (a [`Cell`]'s `to_string()`, or a nested `history` object).
#[must_use]
pub fn render_sweep_json(header: &[(&str, String)], rows: &[Row]) -> String {
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
    json
}

/// A condition every row of an artifact must meet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// The column reads above zero: a row that completed no operation did
    /// no work, and an `events_per_s` of zero means the event loop never ran.
    Positive(&'static str),
    /// The column reads zero (invariant violations; fresh allocations in a
    /// phase that must run on recycled memory).
    Zero(&'static str),
    /// The column is a positive integer (a count such as the cores a row
    /// ran with).
    Count(&'static str),
    /// The two columns read the same: every submitted operation completed.
    Equal(&'static str, &'static str),
    /// The column increases strictly, in row order, among the rows that
    /// share their value of `within` — a shuffled or duplicated offered-load
    /// sweep would make its knee meaningless.
    Increasing {
        /// The column that must increase.
        column: &'static str,
        /// The column grouping the rows (the backend).
        within: &'static str,
    },
}

/// What every closed-loop sweep row (`cluster_bench`) must show: all of its
/// operations completed, the periodic substrate ran, and no frame was
/// rejected (loopback and mailbox frames are byte-exact; a reject is an
/// encoder/decoder bug).
pub const CLOSED_LOOP_RULES: &[Rule] = &[
    Rule::Positive("puts_completed"),
    Rule::Positive("gets_answered"),
    Rule::Equal("puts_submitted", "puts_completed"),
    Rule::Equal("gets_submitted", "gets_answered"),
    Rule::Positive("gossip_messages"),
    Rule::Zero("wire_rejects"),
];

/// `cluster_bench --assert-steady-alloc`: the warmed cluster's latency
/// phase runs entirely on recycled frame and reassembly buffers, and every
/// worker batches from the vectors its earlier rounds handed back.
pub const STEADY_ALLOC_RULES: &[Rule] = &[
    Rule::Zero("arena_steady_fresh_delta"),
    Rule::Zero("batch_steady_fresh_delta"),
];

/// Simulator sweep rows (`sim_bench`): every operation of the schedule
/// reached a terminal state (the short client timeout guarantees it can),
/// the event loop ran, and the row names the cores it ran with.
pub const SIM_RULES: &[Rule] = &[
    Rule::Positive("puts_completed"),
    Rule::Positive("gets_answered"),
    Rule::Equal("puts_submitted", "puts_completed"),
    Rule::Equal("gets_submitted", "gets_answered"),
    Rule::Positive("events_per_s"),
    Rule::Count("cores"),
];

/// Open-loop rows (`openloop_bench`) may shed arrivals and time operations
/// out — that visibility is the point — but each must complete something,
/// and the offered load must climb within a backend.
pub const OPEN_LOOP_RULES: &[Rule] = &[
    Rule::Positive("ops_completed"),
    Rule::Increasing {
        column: "offered_ops_per_s",
        within: "backend",
    },
];

/// Nemesis rows (`nemesis_bench`): the cluster under fault injection broke
/// no invariant. Timed-out operations are the signal there, not a failure.
pub const NEMESIS_RULES: &[Rule] = &[Rule::Zero("invariant_violations")];

/// Names a row in a violation: its index and first two columns, which every
/// artifact keys its rows by (`workers`/`nodes`, `backend`/offered load,
/// `scenario`/`nodes`).
fn row_label(index: usize, row: &Row) -> String {
    let key: Vec<String> = row
        .iter()
        .take(2)
        .map(|(name, value)| format!("{name} {value}"))
        .collect();
    format!("row {index} ({})", key.join(", "))
}

/// Every way `rows` break `rules`, plus every `requested` row — given by its
/// key columns — that no row matches. Each entry names the row and the
/// condition; a column a rule needs and a row lacks is a violation too.
#[must_use]
pub fn violations(rows: &[Row], rules: &[Rule], requested: &[Row]) -> Vec<String> {
    let bound = |value: Option<Cell>, column: &str, ok: fn(f64) -> bool, want: &str| match value {
        None => Some(format!("{column} missing")),
        Some(value) if !ok(value.as_f64()) => Some(format!("{column} is {value}, must be {want}")),
        Some(_) => None,
    };
    let mut found = Vec::new();
    for rule in rules {
        // Per `within` value of an `Increasing` rule: the last value seen.
        let mut last: Vec<(Cell, f64)> = Vec::new();
        for (index, row) in rows.iter().enumerate() {
            let read = |column: &str| cell(row, column);
            let problem = match *rule {
                Rule::Positive(column) => bound(read(column), column, |v| v > 0.0, "positive"),
                Rule::Zero(column) => bound(read(column), column, |v| v == 0.0, "0"),
                Rule::Count(column) => match read(column) {
                    Some(Cell::Int(count)) if count > 0 => None,
                    Some(value) => Some(format!("{column} is {value}, must be a positive integer")),
                    None => Some(format!("{column} missing")),
                },
                Rule::Equal(left, right) => match (read(left), read(right)) {
                    (Some(a), Some(b)) if a == b => None,
                    (Some(a), Some(b)) => Some(format!("{right} is {b}, {left} is {a}")),
                    _ => Some(format!("{left} or {right} missing")),
                },
                Rule::Increasing { column, within } => match (read(within), read(column)) {
                    (Some(group), Some(value)) => {
                        let value = value.as_f64();
                        let previous = match last.iter_mut().find(|(g, _)| *g == group) {
                            Some((_, slot)) => Some(std::mem::replace(slot, value)),
                            None => {
                                last.push((group, value));
                                None
                            }
                        };
                        previous.filter(|&p| value <= p).map(|p| {
                            format!(
                                "{column} {value:.2} does not increase on {p:.2} \
                                 within {within} {group}"
                            )
                        })
                    }
                    _ => Some(format!("{within} or {column} missing")),
                },
            };
            if let Some(problem) = problem {
                found.push(format!("{}: {problem}", row_label(index, row)));
            }
        }
    }
    for key in requested {
        let matches = |row: &Row| {
            key.iter()
                .all(|&(name, value)| cell(row, name) == Some(value))
        };
        if !rows.iter().any(matches) {
            let key: Vec<String> = key
                .iter()
                .map(|(name, value)| format!("{name} {value}"))
                .collect();
            found.push(format!("requested row ({}) missing", key.join(", ")));
        }
    }
    found
}

/// Writes a bench artifact and holds its rows to `rules` and `requested`
/// (see [`violations`]). The rows are checked before the file is written;
/// the file is written either way, so a failed run leaves its artifact to
/// inspect; then every violation is printed and the process exits
/// non-zero.
///
/// # Panics
///
/// Panics if the artifact cannot be written.
pub fn publish(
    path: &str,
    header: &[(&str, String)],
    rows: &[Row],
    rules: &[Rule],
    requested: &[Row],
) {
    let found = violations(rows, rules, requested);
    let json = render_sweep_json(header, rows);
    std::fs::write(path, json).unwrap_or_else(|error| panic!("write {path}: {error}"));
    println!("wrote {path}");
    if !found.is_empty() {
        for violation in &found {
            eprintln!("{path}: {violation}");
        }
        std::process::exit(1);
    }
}

/// A transport the benches host clusters on, configured from the knobs they
/// set.
pub trait BenchTransport: Transport {
    /// The configuration for `workers` worker threads (`0` picks
    /// `min(cores, 8)`) and mailboxes of `mailbox_capacity` (`0` =
    /// unbounded); `socket` picks the socket family and is ignored
    /// in-process.
    fn config(workers: usize, mailbox_capacity: usize, socket: SocketTransportKind)
        -> Self::Config;
}

impl BenchTransport for InProcess {
    fn config(
        workers: usize,
        mailbox_capacity: usize,
        _: SocketTransportKind,
    ) -> AsyncClusterConfig {
        AsyncClusterConfig {
            workers,
            mailbox_capacity,
        }
    }
}

impl BenchTransport for Socket {
    fn config(
        workers: usize,
        mailbox_capacity: usize,
        transport: SocketTransportKind,
    ) -> SocketClusterConfig {
        SocketClusterConfig {
            workers,
            mailbox_capacity,
            transport,
            ..SocketClusterConfig::default()
        }
    }
}

/// A client that knows the slice layout: each request goes to a member of
/// its key's responsible slice, chosen uniformly. Built from the spec's warm
/// node states, so it is a deterministic function of the spec.
#[derive(Debug, Clone)]
pub struct ContactPlan {
    partition: SlicePartition,
    members_by_slice: Vec<Vec<NodeId>>,
}

impl ContactPlan {
    /// The plan of the cluster `spec` describes.
    ///
    /// # Panics
    ///
    /// Panics if a slice has no members (too few nodes per slice).
    #[must_use]
    pub fn build(spec: &ClusterSpec) -> Self {
        let nodes = spec.build_nodes();
        let partition = nodes[0].partition();
        let mut members_by_slice = vec![Vec::new(); partition.slice_count() as usize];
        for node in &nodes {
            if let Some(slice) = node.slice() {
                members_by_slice[slice.index() as usize].push(node.id());
            }
        }
        for (index, members) in members_by_slice.iter().enumerate() {
            assert!(
                !members.is_empty(),
                "slice {index} has no members: the nodes/slices ratio leaves \
                 slices unpopulated; use at least ~25 nodes per slice"
            );
        }
        Self {
            partition,
            members_by_slice,
        }
    }

    /// A member of the slice responsible for `key`, drawn from `rng`.
    pub fn contact_for(&self, key: Key, rng: &mut impl rand::Rng) -> NodeId {
        let members = &self.members_by_slice[self.partition.slice_of(key).index() as usize];
        members[rng.gen_range(0..members.len())]
    }
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

/// Number of objects each slice is provisioned for when sizing the workload:
/// the YCSB load is proportional to the system capacity, i.e. to the slice
/// count.
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

    #[test]
    fn cells_render_by_their_type() {
        assert_eq!(Cell::from(62u64).to_string(), "62");
        assert_eq!(Cell::from(1600usize).to_string(), "1600");
        assert_eq!(Cell::from(0.2).to_string(), "0.20");
        assert_eq!(Cell::from(600.0).to_string(), "600.00");
        assert_eq!(Cell::from(8376.419).to_string(), "8376.42");
        assert_eq!(Cell::from("async").to_string(), "\"async\"");
    }

    #[test]
    fn the_writer_reproduces_the_socket_artifact_layout() {
        let header = [
            (
                "workload_mode",
                Cell::Str("closed_loop_latency_bound").to_string(),
            ),
            ("nodes", 220.to_string()),
            ("slices", 4.to_string()),
            ("mailbox_capacity", 0.to_string()),
            ("transport", Cell::Str("tcp").to_string()),
            (
                "history",
                "{\n    \"reactor_side_decode\": {\n      \"workers\": 1\n    }\n  }".to_string(),
            ),
        ];
        let row: Row = vec![
            ("workers", 1usize.into()),
            ("nodes", 220usize.into()),
            ("spawn_ms", 43u64.into()),
            ("spawn_ms_per_node", 0.195.into()),
            ("puts_submitted", 1600usize.into()),
            ("puts_completed", 1600usize.into()),
            ("put_throughput_ops_per_s", 8376.42.into()),
            ("put_latency_p999_us", 960.71.into()),
            ("dials", 220u64.into()),
            ("arena_recycled_buffers", 3785872u64.into()),
            ("replica_objects_total", 55229usize.into()),
        ];
        let expected = r#"{
  "workload_mode": "closed_loop_latency_bound",
  "nodes": 220,
  "slices": 4,
  "mailbox_capacity": 0,
  "transport": "tcp",
  "history": {
    "reactor_side_decode": {
      "workers": 1
    }
  },
  "sweep": [
    {
      "workers": 1,
      "nodes": 220,
      "spawn_ms": 43,
      "spawn_ms_per_node": 0.20,
      "puts_submitted": 1600,
      "puts_completed": 1600,
      "put_throughput_ops_per_s": 8376.42,
      "put_latency_p999_us": 960.71,
      "dials": 220,
      "arena_recycled_buffers": 3785872,
      "replica_objects_total": 55229
    },
    {
      "workers": 1,
      "nodes": 220,
      "spawn_ms": 43,
      "spawn_ms_per_node": 0.20,
      "puts_submitted": 1600,
      "puts_completed": 1600,
      "put_throughput_ops_per_s": 8376.42,
      "put_latency_p999_us": 960.71,
      "dials": 220,
      "arena_recycled_buffers": 3785872,
      "replica_objects_total": 55229
    }
  ]
}
"#;
        assert_eq!(render_sweep_json(&header, &[row.clone(), row]), expected);
    }

    /// A closed-loop or sim row: `puts_*`/`gets_*` counts plus the other
    /// columns the closed-loop rules read, all healthy.
    fn completion_row(puts: (usize, usize), gets: (usize, usize)) -> Row {
        vec![
            ("workers", 1usize.into()),
            ("nodes", 220usize.into()),
            ("puts_submitted", puts.0.into()),
            ("puts_completed", puts.1.into()),
            ("gets_submitted", gets.0.into()),
            ("gets_answered", gets.1.into()),
            ("gossip_messages", 1538u64.into()),
            ("wire_rejects", 0u64.into()),
            ("events_per_s", 250932.26.into()),
            ("cores", 2usize.into()),
        ]
    }

    /// `rules` pass `good` and reject `bad` with a violation naming the row
    /// and containing `condition`.
    fn assert_judged(rules: &[Rule], good: Vec<Row>, bad: Vec<Row>, condition: &str) {
        assert_eq!(violations(&good, rules, &[]), Vec::<String>::new());
        let found = violations(&bad, rules, &[]);
        assert!(
            found
                .iter()
                .any(|v| v.starts_with("row ") && v.contains(condition)),
            "expected a violation containing {condition:?}, got {found:?}"
        );
    }

    #[test]
    fn a_row_with_zero_completed_operations_fails() {
        for rules in [CLOSED_LOOP_RULES, SIM_RULES] {
            let good = completion_row((150, 150), (150, 150));
            assert_judged(
                rules,
                vec![good.clone()],
                vec![good.clone(), completion_row((0, 0), (150, 150))],
                "puts_completed is 0",
            );
            assert_judged(
                rules,
                vec![good],
                vec![completion_row((150, 150), (0, 0))],
                "gets_answered is 0",
            );
        }
        let open = |completed: usize| -> Row {
            vec![
                ("backend", "async".into()),
                ("offered_ops_per_s", 300.0.into()),
                ("ops_completed", completed.into()),
            ]
        };
        assert_judged(
            OPEN_LOOP_RULES,
            vec![open(1200)],
            vec![open(0)],
            "ops_completed is 0",
        );
    }

    #[test]
    fn submitted_but_uncompleted_puts_or_gets_fail() {
        for rules in [CLOSED_LOOP_RULES, SIM_RULES] {
            let good = vec![completion_row((150, 150), (150, 150))];
            assert_judged(
                rules,
                good.clone(),
                vec![completion_row((150, 149), (150, 150))],
                "puts_completed is 149, puts_submitted is 150",
            );
            assert_judged(
                rules,
                good,
                vec![completion_row((150, 150), (150, 149))],
                "gets_answered is 149, gets_submitted is 150",
            );
        }
    }

    #[test]
    fn a_sim_row_names_a_positive_whole_number_of_cores() {
        let good = completion_row((150, 150), (150, 150));
        let with_cores = |cores: Cell| -> Row {
            let mut row = good.clone();
            row.retain(|(name, _)| *name != "cores");
            row.push(("cores", cores));
            row
        };
        for (cores, condition) in [
            (Cell::Int(0), "cores is 0, must be a positive integer"),
            (
                Cell::Float(2.5),
                "cores is 2.50, must be a positive integer",
            ),
        ] {
            assert_judged(
                SIM_RULES,
                vec![good.clone()],
                vec![with_cores(cores)],
                condition,
            );
        }
        let mut missing = good.clone();
        missing.retain(|(name, _)| *name != "cores");
        assert_judged(SIM_RULES, vec![good], vec![missing], "cores missing");
    }

    #[test]
    fn a_nemesis_row_with_invariant_violations_fails() {
        let row = |violations: usize| -> Row {
            vec![
                ("scenario", "sim_churn_partition".into()),
                ("nodes", 10_000usize.into()),
                ("invariant_violations", violations.into()),
            ]
        };
        assert_judged(
            NEMESIS_RULES,
            vec![row(0)],
            vec![row(2)],
            "invariant_violations is 2, must be 0",
        );
    }

    #[test]
    fn offered_load_must_increase_within_a_backend() {
        let row = |backend: &'static str, offered: f64| -> Row {
            vec![
                ("backend", backend.into()),
                ("offered_ops_per_s", offered.into()),
                ("ops_completed", 10usize.into()),
            ]
        };
        // Each backend restarts the climb; only order within one counts.
        let good = vec![
            row("async", 300.0),
            row("async", 600.0),
            row("socket", 300.0),
            row("socket", 600.0),
        ];
        assert_judged(
            OPEN_LOOP_RULES,
            good.clone(),
            vec![row("async", 600.0), row("async", 300.0)],
            "offered_ops_per_s 300.00 does not increase on 600.00 within backend \"async\"",
        );
        assert_judged(
            OPEN_LOOP_RULES,
            good,
            vec![row("socket", 300.0), row("socket", 300.0)],
            "does not increase",
        );
    }

    #[test]
    fn sim_rows_need_positive_events_per_s() {
        let healthy = completion_row((800, 800), (800, 800));
        let mut missing = healthy.clone();
        missing.retain(|(name, _)| *name != "events_per_s");
        let mut stalled = missing.clone();
        stalled.push(("events_per_s", 0.0.into()));
        assert_judged(
            SIM_RULES,
            vec![healthy.clone()],
            vec![stalled],
            "events_per_s is 0.00, must be positive",
        );
        assert_judged(
            SIM_RULES,
            vec![healthy],
            vec![missing],
            "events_per_s missing",
        );
    }

    #[test]
    fn a_requested_row_missing_from_the_output_fails() {
        let key = |nodes: usize, workers: usize| -> Row {
            vec![("nodes", nodes.into()), ("workers", workers.into())]
        };
        let rows = vec![completion_row((150, 150), (150, 150))];
        assert!(violations(&rows, CLOSED_LOOP_RULES, &[key(220, 1)]).is_empty());
        assert_eq!(
            violations(&rows, CLOSED_LOOP_RULES, &[key(220, 1), key(2000, 2)]),
            vec!["requested row (nodes 2000, workers 2) missing".to_string()],
        );
    }

    #[test]
    fn steady_alloc_fails_on_fresh_buffers_or_vectors_in_the_latency_phase() {
        let row = |arena: u64, batch: u64| -> Row {
            vec![
                ("workers", 2usize.into()),
                ("nodes", 2000usize.into()),
                ("arena_steady_fresh_delta", arena.into()),
                ("batch_steady_fresh_delta", batch.into()),
            ]
        };
        assert_judged(
            STEADY_ALLOC_RULES,
            vec![row(0, 0)],
            vec![row(3, 0)],
            "row 0 (workers 2, nodes 2000): arena_steady_fresh_delta is 3, must be 0",
        );
        assert_judged(
            STEADY_ALLOC_RULES,
            vec![row(0, 0)],
            vec![row(0, 1)],
            "batch_steady_fresh_delta is 1, must be 0",
        );
    }
}
