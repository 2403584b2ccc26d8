//! One run of one workload: set-up (several times), the measured window,
//! the checks, and every metric derived from what was seen.

use std::path::PathBuf;
use std::time::{Duration as StdDuration, Instant};

use crate::adapter::cluster::{Backend, Cluster, RuntimeCounters, IO_THREADS, WORKERS};
use crate::adapter::sim::{SimCounters, SimRun};
use crate::adapter::{layers, NodeTotals, WorkloadGenerator};
use crate::driver::{self, Checker, Phases, UnloadedStats, WindowStats};
use crate::metrics::{ratio, Values, END_TO_END, PER_LAYER};
use crate::procfs::{self, Cpu, ThreadCpu};
use crate::provenance::Provenance;
use crate::stats::{highest_supported_percentile, median, percentile, sort};
use crate::trace::{Tracer, NO_SPAN};
use crate::workloads::{ClusterLoad, Kind, Scale, Workload, DEFAULT_SEED};

/// Share of operations that may need a second attempt (and, separately, the
/// share that may fail outright) before a cluster run is reported incorrect:
/// a handful of misses per 10k gets is this protocol's normal (a node that
/// has just changed slice); two in a thousand is not.
const MAX_RETRIED_FRAC: f64 = 0.002;
const MAX_FAILED_FRAC: f64 = 0.002;
/// Floors on what the simulated client must see for the simulation to count
/// as having run the scenario: every put acknowledged, and at least half the
/// gets served. (About a third of the trailing gets are answered "not found"
/// at 10k nodes — rank drift strands replicas at 2 %-wide slices, a known
/// limit reported as `sim.get_hit_frac`; far fewer hits means the protocol
/// broke.)
const MIN_SIM_PUT_ACK_FRAC: f64 = 1.0;
const MIN_SIM_GET_HIT_FRAC: f64 = 0.5;
/// What `sim_churn_10k` counts at the default seed and the tracked size:
/// events dispatched (`BENCH_sim.json`'s 10k row), puts acknowledged, gets
/// served. The simulation is deterministic per seed, so any other count
/// means the protocol's behaviour changed; such a change re-measures these.
const PINNED_SIM_COUNTS: (u64, u64, u64) = (8_564_569, 800, 545);
/// `bench.drift_frac` above which the cluster is reported "not steady".
const MAX_DRIFT_FRAC: f64 = 0.15;
/// `bench.client_cpu_frac` above which the generator is reported to be the
/// bottleneck.
const MAX_CLIENT_CPU_FRAC: f64 = 0.35;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of the generated operations (and of the simulation).
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: u64,
    /// Whether to record spans and per-layer counters.
    pub traced: bool,
    /// The sizes to run at.
    pub scale: Scale,
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Operations started.
    pub attempted: u64,
    /// Operations that never succeeded.
    pub failed: u64,
    /// The end-to-end metrics (always measured).
    pub end_to_end: Values,
    /// The per-layer metrics (all zero unless the run was traced).
    pub per_layer: Values,
    /// Checks that failed: any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Validity warnings: the numbers stand, but read them with care.
    pub warnings: Vec<String>,
    /// Cluster workloads: operations that succeeded in each whole second of
    /// the window.
    pub per_second: Vec<f64>,
    /// Extra numbers for the printed summary and for `all`/`repeat`.
    pub diagnostics: Vec<(&'static str, f64)>,
    /// Where the trace was written, if the run was traced.
    pub trace_path: Option<PathBuf>,
}

impl RunReport {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Runs `options.workload` once.
pub fn run(options: &RunOptions, provenance: &Provenance) -> RunReport {
    let mut tracer = Tracer::new(options.traced);
    let mut report = match options.workload.kind {
        Kind::Cluster(load) => run_cluster(options, load, &mut tracer),
        Kind::Sim => run_sim(options, &mut tracer),
    };
    if options.traced {
        report
            .per_layer
            .set("bench.peak_rss_mb", procfs::peak_rss_kb() as f64 / 1_024.0);
        let path = out_dir().join(format!("trace-{}.json", options.workload.name));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, tracer.to_json(&provenance.to_json())));
        match written {
            Ok(()) => report.trace_path = Some(path),
            Err(error) => report
                .warnings
                .push(format!("trace not written to {}: {error}", path.display())),
        }
    }
    report
}

/// `benchmark/out`, next to this crate's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn empty_report() -> RunReport {
    RunReport {
        attempted: 0,
        failed: 0,
        end_to_end: Values::new(END_TO_END),
        per_layer: Values::new(PER_LAYER),
        problems: Vec::new(),
        warnings: Vec::new(),
        per_second: Vec::new(),
        diagnostics: Vec::new(),
        trace_path: None,
    }
}

/// `(p50, p99)` of unsorted samples.
fn p50_p99(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    (percentile(&sorted, 0.5), percentile(&sorted, 0.99))
}

// ---------------------------------------------------------------------------
// Cluster workloads
// ---------------------------------------------------------------------------

/// Everything read from outside the program at one edge of the window.
struct Snapshot {
    at: Instant,
    process: Cpu,
    threads: Vec<ThreadCpu>,
    involuntary_switches: u64,
    runtime: RuntimeCounters,
}

impl Snapshot {
    fn take(cluster: &Cluster) -> Self {
        Self {
            at: Instant::now(),
            process: procfs::process_cpu(),
            threads: procfs::thread_cpus(),
            involuntary_switches: procfs::involuntary_ctx_switches(),
            runtime: cluster.counters(),
        }
    }
}

/// CPU of the cluster's threads over the window, by role.
#[derive(Debug, Default, Clone, Copy)]
struct RoleCpu {
    client: Cpu,
    worker: Cpu,
    io: Cpu,
    timer: Cpu,
}

/// Splits the window's per-thread CPU by role. The client is this (the
/// main) thread. The in-process runtime names its threads apart
/// (`dataflasks-worker-N`, `dataflasks-timer-wheel`). The socket runtime's
/// names all truncate to `dataflasks-sock` in the kernel's 15-byte `comm`,
/// so its threads are told apart by creation order — workers, reactors,
/// timer — and only if exactly that many exist. `None` when the threads
/// found do not match the expected layout.
fn role_cpu(backend: Backend, before: &[ThreadCpu], after: &[ThreadCpu]) -> Option<RoleCpu> {
    let delta = |t: &ThreadCpu| {
        let earlier = before
            .iter()
            .find(|b| b.tid == t.tid)
            .map_or(Cpu::default(), |b| b.cpu);
        t.cpu.since(earlier)
    };
    let mut roles = RoleCpu::default();
    let main = u64::from(std::process::id());
    roles.client = delta(after.iter().find(|t| t.tid == main)?);
    match backend {
        Backend::Async => {
            let mut workers = 0;
            let mut timers = 0;
            for thread in after {
                if thread.comm.starts_with("dataflasks-work") {
                    roles.worker.add(delta(thread));
                    workers += 1;
                } else if thread.comm.starts_with("dataflasks-time") {
                    roles.timer.add(delta(thread));
                    timers += 1;
                }
            }
            (workers == WORKERS && timers == 1).then_some(roles)
        }
        Backend::Socket => {
            let threads: Vec<&ThreadCpu> = after
                .iter()
                .filter(|t| t.comm == "dataflasks-sock")
                .collect();
            if threads.len() != WORKERS + IO_THREADS + 1 {
                return None;
            }
            for (index, thread) in threads.into_iter().enumerate() {
                let role = if index < WORKERS {
                    &mut roles.worker
                } else if index < WORKERS + IO_THREADS {
                    &mut roles.io
                } else {
                    &mut roles.timer
                };
                role.add(delta(thread));
            }
            Some(roles)
        }
    }
}

/// A cluster ready for its load: spawned, warmed, every record written at
/// version 1.
struct SetUp {
    cluster: Cluster,
    generator: WorkloadGenerator,
    checker: Checker,
    preload_failed: u64,
    /// Spawn → end of preload: the part timed as `setup_s`.
    seconds: f64,
}

fn set_up(options: &RunOptions, load: ClusterLoad, tracer: &mut Tracer, parent: u32) -> SetUp {
    let started = Instant::now();
    let span = tracer.begin("spawn", parent, 0);
    let mut cluster = Cluster::start(load.backend, options.scale.cluster);
    tracer.end(span);
    let span = tracer.begin("warmup", parent, 0);
    driver::warm_up(&mut cluster);
    tracer.end(span);
    let span = tracer.begin("preload", parent, 0);
    let mut generator = WorkloadGenerator::new(load.spec(), options.seed);
    let mut checker = Checker::new(load.records, load.value_size);
    let preload_failed = driver::preload(&cluster, &mut generator, &mut checker);
    tracer.end(span);
    SetUp {
        cluster,
        generator,
        checker,
        preload_failed,
        seconds: started.elapsed().as_secs_f64(),
    }
}

/// What the measured cluster saw, from spawn to shutdown.
struct Measured {
    unloaded: UnloadedStats,
    stats: WindowStats,
    checker: Checker,
    opened: Snapshot,
    closed: Snapshot,
    life_s: f64,
    totals: NodeTotals,
}

fn run_cluster(options: &RunOptions, load: ClusterLoad, tracer: &mut Tracer) -> RunReport {
    let mut report = empty_report();
    let run_span = tracer.begin("run", NO_SPAN, 0);

    // The measured cluster is the process's first. Later clusters of one
    // process reuse the heap the earlier ones freed and start above the
    // plateau (`socket_write_heavy`: 1.05k ops/s falling to the 0.8k a fresh
    // process shows from its first second, over ~10 s); a deployment's
    // process starts fresh, so that is what is measured. Traced runs spend
    // the head of the measured time one ticket at a time.
    let spawned = Instant::now();
    let SetUp {
        cluster,
        mut generator,
        mut checker,
        mut preload_failed,
        seconds,
    } = set_up(options, load, tracer, run_span);
    let mut setup_s = vec![seconds];

    let mut window = StdDuration::from_secs(options.seconds);
    let mut unloaded = UnloadedStats::default();
    if options.traced {
        let length = StdDuration::from_secs_f64(options.scale.unloaded_s).min(window / 2);
        // Whole seconds, so that every measured second is a full one.
        window = StdDuration::from_secs((window - length).as_secs().max(1));
        let span = tracer.begin("unloaded", run_span, 0);
        unloaded =
            driver::run_unloaded(&cluster, &mut generator, &mut checker, length, tracer, span);
        tracer.end(span);
    }
    let span = tracer.begin("window", run_span, 0);
    let mut edges: Vec<Snapshot> = Vec::with_capacity(2);
    let stats = driver::run_window(
        &cluster,
        &mut generator,
        &mut checker,
        Phases {
            lead_in: StdDuration::from_secs(load.lead_in_s.min(options.scale.max_lead_in_s)),
            window,
        },
        tracer,
        span,
        |_| edges.push(Snapshot::take(&cluster)),
    );
    tracer.end(span);
    let life_s = spawned.elapsed().as_secs_f64();
    let totals = cluster.shutdown();
    let closed = edges.pop().expect("the window closed");
    let opened = edges.pop().expect("the window opened");
    let measured = Measured {
        unloaded,
        stats,
        checker,
        opened,
        closed,
        life_s,
        totals,
    };

    // The set-up again, for its time only: `setup_s` is the median.
    for _ in 1..options.scale.setups {
        let again = set_up(options, load, tracer, run_span);
        setup_s.push(again.seconds);
        preload_failed += again.preload_failed;
        again.cluster.shutdown();
    }
    tracer.end(run_span);

    let Measured {
        unloaded,
        stats,
        checker,
        opened,
        closed,
        ..
    } = &measured;
    let completed = stats.completed as f64;
    let cpu = closed.process.since(opened.process);
    let roles = role_cpu(load.backend, &opened.threads, &closed.threads);
    tracer.attach("completed_per_second", format!("{:?}", stats.per_second));
    report.per_second = stats.per_second.clone();

    report.attempted =
        stats.attempted + (unloaded.get_us.len() + unloaded.put_us.len()) as u64 + unloaded.failed;
    report.failed = stats.failed + unloaded.failed;
    for (count, what) in [
        (preload_failed, "preload puts were not acknowledged"),
        (
            checker.wrong_replies,
            "replies contradicted what was written (wrong key, version, length or fill byte)",
        ),
    ] {
        if count > 0 {
            report.problems.push(format!("{count} {what}"));
        }
    }
    let failed_frac = ratio(report.failed as f64, report.attempted as f64);
    if failed_frac > MAX_FAILED_FRAC {
        report.problems.push(format!(
            "{} of {} operations failed ({failed_frac:.4} > {MAX_FAILED_FRAC})",
            report.failed, report.attempted
        ));
    }
    let retried = stats.retried + unloaded.retried;
    let retried_frac = ratio(retried as f64, report.attempted as f64);
    if retried_frac > MAX_RETRIED_FRAC {
        report.problems.push(format!(
            "{retried} of {} operations needed a second attempt \
             ({retried_frac:.4} > {MAX_RETRIED_FRAC})",
            report.attempted
        ));
    }

    // End to end: the rate is the median of the window's seconds, which
    // shrugs off a second the host took away.
    let rate = median(&stats.per_second);
    report.end_to_end.set("setup_s", median(&setup_s));
    report.end_to_end.set("ops_per_s", rate);
    report
        .end_to_end
        .set("cpu_us_per_op", ratio(cpu.total_s() * 1e6, completed));

    // Validity: does the cluster slow down (or speed up) while it is measured?
    let third = (stats.per_second.len() / 3).max(1);
    let first: f64 = stats.per_second[..third].iter().sum();
    let last: f64 = stats.per_second[stats.per_second.len() - third..]
        .iter()
        .sum();
    let drift_frac = ratio((first - last).abs(), first);
    let client_cpu_frac = roles.map_or(0.0, |r| ratio(r.client.total_s(), cpu.total_s()));
    let name = options.workload.name;
    if drift_frac > MAX_DRIFT_FRAC {
        report.warnings.push(format!(
            "{name}: cluster not steady (bench.drift_frac {drift_frac:.3} > {MAX_DRIFT_FRAC}: \
             first third {first} ops, last third {last})"
        ));
    }
    if client_cpu_frac > MAX_CLIENT_CPU_FRAC {
        report.warnings.push(format!(
            "{name}: the generator is the bottleneck (bench.client_cpu_frac \
             {client_cpu_frac:.3} > {MAX_CLIENT_CPU_FRAC})"
        ));
    }
    let (get_p50, get_p99) = p50_p99(&stats.get_us);
    let (put_p50, put_p99) = p50_p99(&stats.put_us);
    report.diagnostics.extend([
        ("window_s", stats.window_s),
        ("completed", completed),
        ("ops_per_s_mean", ratio(completed, stats.window_s)),
        ("get_p50_us", get_p50),
        ("get_p99_us", get_p99),
        ("get_samples", stats.get_us.len() as f64),
        (
            "get_highest_supported_percentile",
            highest_supported_percentile(stats.get_us.len(), 10).unwrap_or(0.0),
        ),
        ("put_p50_us", put_p50),
        ("put_p99_us", put_p99),
        ("put_samples", stats.put_us.len() as f64),
        ("drift_frac", drift_frac),
        ("client_cpu_frac", client_cpu_frac),
        ("unanswered_attempts", checker.unanswered as f64),
        ("retried", retried as f64),
        ("retried_frac", retried_frac),
        ("failed_frac", failed_frac),
    ]);

    if options.traced {
        let out = &mut report.per_layer;
        per_layer_cluster(out, load, &measured, roles, tracer);
        out.set("bench.drift_frac", drift_frac);
        out.set("bench.client_cpu_frac", client_cpu_frac);
        out.set("bench.traced_ops_per_s", rate);
        out.set("bench.get_p50_us", get_p50);
        out.set("bench.get_p99_us", get_p99);
        out.set("bench.put_p50_us", put_p50);
        out.set("bench.put_p99_us", put_p99);
        out.set("bench.retried_frac", retried_frac);
        out.set("bench.failed_frac", failed_frac);
        if roles.is_none() {
            report.warnings.push(format!(
                "{name}: thread layout not recognised; per-thread CPU metrics read 0"
            ));
        }
    }
    report
}

/// The per-layer metrics of a traced cluster run.
fn per_layer_cluster(
    out: &mut Values,
    load: ClusterLoad,
    measured: &Measured,
    roles: Option<RoleCpu>,
    tracer: &Tracer,
) {
    let Measured {
        unloaded,
        stats,
        checker,
        opened,
        closed,
        life_s,
        totals,
    } = measured;
    let completed = stats.completed as f64;

    // Node counters cover the cluster's whole life, so they are divided by
    // every operation it served: preload, one-at-a-time phase, lead-in and
    // window.
    let gets = (stats.all_gets + unloaded.get_us.len() as u64) as f64;
    let puts = (stats.all_puts + unloaded.put_us.len() as u64) as f64 + load.records as f64;
    let ops = gets + puts;
    let node = &totals.stats;
    let messages = &totals.messages;
    out.set(
        "core.node.request_msgs_per_op",
        ratio(messages.request_sent as f64, ops),
    );
    out.set(
        "core.node.reply_msgs_per_op",
        ratio(messages.reply_sent as f64, ops),
    );
    out.set(
        "core.node.puts_stored_per_put",
        ratio(node.puts_stored as f64, puts),
    );
    out.set(
        "core.node.gets_hit_per_get",
        ratio(node.gets_hit as f64, gets),
    );
    out.set(
        "core.node.requests_expired_per_op",
        ratio(node.requests_expired as f64, ops),
    );
    out.set(
        "core.dedup.duplicate_frac",
        ratio(
            node.requests_duplicate as f64,
            messages.request_received as f64,
        ),
    );

    // The client path, over the window. Counters that only ever grow during
    // a cluster's life (dials, saturation, …) are reported as they stood when
    // the window closed.
    let window = closed.runtime.since(opened.runtime);
    let life = closed.runtime;
    out.set(
        "core.gateway.replies_routed_per_op",
        ratio(window.completions_routed as f64, completed),
    );
    out.set(
        "core.gateway.inflight_high_water",
        life.inflight_high_water as f64,
    );
    let (submit_p50, submit_p99) = p50_p99(&tracer.durations_us("submit_call"));
    out.set("core.gateway.submit_call_p50_us", submit_p50);
    out.set("core.gateway.submit_call_p99_us", submit_p99);
    out.set(
        "core.gateway.poll_call_p50_us",
        p50_p99(&tracer.durations_us("poll_call")).0,
    );
    out.set(
        "core.gateway.unloaded_get_p50_us",
        p50_p99(&unloaded.get_us).0,
    );
    out.set(
        "core.gateway.unloaded_put_p50_us",
        p50_p99(&unloaded.put_us).0,
    );

    // Who burnt the CPU.
    let roles = roles.unwrap_or_default();
    let per_op = |cpu: Cpu| ratio(cpu.total_s() * 1e6, completed);
    out.set("bench.client_cpu_us_per_op", per_op(roles.client));
    match load.backend {
        Backend::Socket => {
            out.set("net_env.worker_cpu_us_per_op", per_op(roles.worker));
            out.set("net_env.io_cpu_us_per_op", per_op(roles.io));
            out.set(
                "net_env.io_sys_frac",
                ratio(roles.io.sys_s, roles.io.total_s()),
            );
            out.set("net_env.timer_cpu_us_per_op", per_op(roles.timer));
            out.set("net_env.dials", life.dials as f64);
            out.set("net_env.dial_retries", life.dial_retries as f64);
            out.set("net_env.saturation_events", life.saturation_events as f64);
            out.set(
                "net_env.arena_fresh_per_kop",
                ratio(window.arena_fresh as f64 * 1_000.0, completed),
            );
            out.set(
                "net_env.arena_recycled_frac",
                ratio(
                    window.arena_recycled as f64,
                    (window.arena_recycled + window.arena_fresh) as f64,
                ),
            );
            out.set(
                "net_env.reactor_stale_events",
                life.reactor_stale_events as f64,
            );
            out.set("net_env.wire_rejects", life.wire_rejects as f64);
        }
        Backend::Async => {
            out.set("async_env.worker_cpu_us_per_op", per_op(roles.worker));
            out.set("async_env.timer_cpu_us_per_op", per_op(roles.timer));
            out.set("async_env.saturation_events", life.saturation_events as f64);
        }
    }

    // Background protocols, per node per second of cluster life (the forced
    // warm-up rounds included).
    let node_seconds = totals.nodes as f64 * life_s;
    out.set(
        "store.ae_msgs_per_node_s",
        ratio(messages.anti_entropy_sent as f64, node_seconds),
    );
    out.set(
        "store.objects_repaired_per_s",
        ratio(node.objects_repaired as f64, *life_s),
    );
    out.set(
        "store.ae_chunks_skipped_per_node_s",
        ratio(node.ae_chunks_skipped as f64, node_seconds),
    );
    out.set(
        "membership.msgs_per_node_s",
        ratio(messages.membership_sent as f64, node_seconds),
    );
    out.set(
        "slicing.msgs_per_node_s",
        ratio(messages.slicing_sent as f64, node_seconds),
    );
    out.set(
        "slicing.slice_changes_per_node",
        ratio(node.slice_changes as f64, totals.nodes as f64),
    );
    out.set(
        "slicing.populated_slices_frac",
        ratio(totals.populated_slices as f64, f64::from(totals.slices)),
    );

    // The run itself.
    let switches = closed
        .involuntary_switches
        .saturating_sub(opened.involuntary_switches) as f64;
    let open_s = closed.at.duration_since(opened.at).as_secs_f64();
    out.set("bench.invol_ctx_switches_per_s", ratio(switches, open_s));
    out.set(
        "bench.stale_read_frac",
        ratio(checker.stale_reads as f64, gets),
    );

    for (name, ns) in layers::run() {
        out.set(name, ns);
    }
}

// ---------------------------------------------------------------------------
// The simulator workload
// ---------------------------------------------------------------------------

const STEP_COLUMNS: &str =
    "[\"wall_ms\", \"events\", \"timer_fires\", \"msgs_delivered\", \"msgs_dropped\"]";

/// One row per simulated second: its wall time and what the simulator's
/// counters advanced by.
fn step_rows(step_ms: &[f64], counters: &[SimCounters]) -> String {
    let rows: Vec<String> = step_ms
        .iter()
        .zip(counters.windows(2))
        .map(|(ms, pair)| {
            let (before, after) = (pair[0], pair[1]);
            format!(
                "[{ms:.3}, {}, {}, {}, {}]",
                after.events - before.events,
                after.timer_fires - before.timer_fires,
                after.delivered - before.delivered,
                after.dropped - before.dropped
            )
        })
        .collect();
    format!("[\n{}\n]", rows.join(",\n"))
}

fn run_sim(options: &RunOptions, tracer: &mut Tracer) -> RunReport {
    let mut report = empty_report();
    let shape = options.scale.sim;
    let run_span = tracer.begin("run", NO_SPAN, 0);

    // Set-up is the spawn; spawn many times, simulate on the last. A spawn
    // takes 30–70 ms where a cluster's set-up takes seconds, and its time is
    // bimodal (the node builder's two threads either overlap or take turns on
    // this host), so it takes ten times as many for a median that holds: over
    // nine spawns the median moved 49–68 ms between runs, over thirty 47–52.
    let mut setup_s = Vec::new();
    let mut sim = None;
    for _ in 0..10 * options.scale.setups {
        drop(sim.take());
        let span = tracer.begin("spawn", run_span, 0);
        let started = Instant::now();
        sim = Some(SimRun::spawn(shape, options.seed));
        setup_s.push(started.elapsed().as_secs_f64());
        tracer.end(span);
    }
    let mut sim = sim.expect("at least one spawn ran");

    // One simulated second per step, scenario scheduled after the warm-up.
    // Stepping does not change what is simulated: the event count of a
    // stepped run equals that of `sim_bench`'s two long `run_for` calls.
    let cpu_before = procfs::process_cpu();
    let started = Instant::now();
    let mut step_ms = Vec::with_capacity(shape.sim_seconds() as usize);
    let mut counters = vec![sim.counters()];
    for second in 0..shape.sim_seconds() {
        if second == shape.warmup_s {
            sim.schedule_scenario();
        }
        let span = tracer.begin("step", run_span, second + 1);
        let step_started = Instant::now();
        sim.run_for(1);
        step_ms.push(step_started.elapsed().as_secs_f64() * 1e3);
        tracer.end(span);
        counters.push(sim.counters());
    }
    let wall_s = started.elapsed().as_secs_f64();
    let cpu = procfs::process_cpu().since(cpu_before);
    tracer.end(run_span);
    tracer.attach("sim_step_columns", STEP_COLUMNS.to_string());
    tracer.attach("sim_steps", step_rows(&step_ms, &counters));

    // The operations are the simulated client's. One failed if it was never
    // answered (a put not acknowledged, a get that heard nothing) or was
    // served something else than what was written. A get that replicas
    // answered "not found" was answered: about a third are at 10k nodes and
    // 2 %-wide slices (rank drift strands replicas — a known limit of the
    // protocol, ROADMAP 5a, no accident of a run). It is reported as
    // `sim.get_hit_frac`, held above a floor, and pinned exactly at the
    // default seed, so a change that serves one get fewer shows.
    let client = sim.client_report();
    let sim_s = shape.sim_seconds() as f64;
    report.attempted = client.puts + client.gets;
    report.failed = (client.puts - client.puts_acked)
        + (client.gets - client.gets_hit - client.gets_missed)
        + client.wrong_objects;
    if client.wrong_objects > 0 {
        report.problems.push(format!(
            "{} served objects differed from what was written",
            client.wrong_objects
        ));
    }
    if (client.puts, client.gets) != (shape.puts as u64, shape.gets as u64) {
        report.problems.push(format!(
            "{} puts and {} gets issued, {} and {} scheduled",
            client.puts, client.gets, shape.puts, shape.gets
        ));
    }
    let put_ack_frac = ratio(client.puts_acked as f64, client.puts as f64);
    let get_hit_frac = ratio(client.gets_hit as f64, client.gets as f64);
    if put_ack_frac < MIN_SIM_PUT_ACK_FRAC || get_hit_frac < MIN_SIM_GET_HIT_FRAC {
        report.problems.push(format!(
            "the simulated client saw {put_ack_frac:.3} of its puts acknowledged and \
             {get_hit_frac:.3} of its gets served (floors {MIN_SIM_PUT_ACK_FRAC}, \
             {MIN_SIM_GET_HIT_FRAC})"
        ));
    }

    let last = *counters.last().expect("counters has the initial entry");
    let counts = (last.events, client.puts_acked, client.gets_hit);
    if options.seed == DEFAULT_SEED && options.scale == Scale::FULL && counts != PINNED_SIM_COUNTS {
        report.problems.push(format!(
            "(events, puts acknowledged, gets served) = {counts:?} at the default seed, \
             pinned {PINNED_SIM_COUNTS:?}: the simulated behaviour changed"
        ));
    }

    let mut sorted_steps = step_ms.clone();
    sort(&mut sorted_steps);
    report.end_to_end.set("setup_s", median(&setup_s));
    report.end_to_end.set("ops_per_s", ratio(sim_s, wall_s));
    report
        .end_to_end
        .set("cpu_us_per_op", ratio(cpu.total_s() * 1e6, sim_s));

    let failed_frac = ratio(report.failed as f64, report.attempted as f64);
    report.diagnostics.extend([
        ("sim_seconds", sim_s),
        ("run_wall_ms", wall_s * 1e3),
        ("wall_ms_per_sim_s", wall_s * 1e3 / sim_s),
        ("step_wall_p50_ms", percentile(&sorted_steps, 0.5)),
        ("peak_rss_mb", procfs::peak_rss_kb() as f64 / 1_024.0),
        ("events_dispatched", last.events as f64),
        ("alive_end", sim.alive() as f64),
        ("puts_acked", client.puts_acked as f64),
        ("gets_hit", client.gets_hit as f64),
        ("gets_missed", client.gets_missed as f64),
        ("put_ack_frac", put_ack_frac),
        ("get_hit_frac", get_hit_frac),
        ("failed_frac", failed_frac),
    ]);

    if options.traced {
        let out = &mut report.per_layer;
        let events = last.events as f64;
        out.set("sim.events_per_s", ratio(events, wall_s));
        out.set("sim.ns_per_event", ratio(wall_s * 1e9, events));
        out.set("sim.events_dispatched", events);
        out.set("sim.events_per_sim_s", events / sim_s);
        out.set("sim.timer_fires_per_sim_s", last.timer_fires as f64 / sim_s);
        out.set(
            "sim.msgs_delivered_per_sim_s",
            last.delivered as f64 / sim_s,
        );
        out.set("sim.msgs_dropped", last.dropped as f64);
        // Phases of the scenario, in simulated seconds from the start.
        let warm = shape.warmup_s as usize;
        for (name, from, to) in [
            ("sim.warmup_wall_ms_per_sim_s", 0, warm),
            ("sim.churn_wall_ms_per_sim_s", warm, warm + 20),
            ("sim.read_wall_ms_per_sim_s", warm + 20, warm + 35),
            ("sim.drain_wall_ms_per_sim_s", warm + 35, step_ms.len()),
        ] {
            let steps = &step_ms[from.min(step_ms.len())..to.min(step_ms.len())];
            out.set(name, ratio(steps.iter().sum(), steps.len() as f64));
        }
        out.set("sim.step_wall_p99_ms", percentile(&sorted_steps, 0.99));
        out.set(
            "sim.spawn_us_per_node",
            median(&setup_s) * 1e6 / shape.nodes as f64,
        );
        out.set(
            "sim.rss_kb_per_node",
            procfs::peak_rss_kb() as f64 / shape.nodes as f64,
        );
        out.set("sim.put_ack_frac", put_ack_frac);
        out.set("sim.get_hit_frac", get_hit_frac);
        out.set("bench.failed_frac", failed_frac);
        let totals = sim.node_totals();
        let nodes = totals.nodes as f64;
        out.set(
            "core.node.request_msgs_per_node",
            ratio(totals.messages.request_messages as f64, nodes),
        );
        out.set(
            "core.node.total_msgs_per_node",
            ratio(totals.messages.total_messages as f64, nodes),
        );
        out.set(
            "store.objects_repaired",
            totals.stats.objects_repaired as f64,
        );
        let node_seconds = nodes * sim_s;
        out.set(
            "store.ae_msgs_per_node_s",
            ratio(totals.messages.anti_entropy_sent as f64, node_seconds),
        );
        out.set(
            "store.ae_chunks_skipped_per_node_s",
            ratio(totals.stats.ae_chunks_skipped as f64, node_seconds),
        );
        out.set(
            "store.objects_repaired_per_s",
            ratio(totals.stats.objects_repaired as f64, sim_s),
        );
        out.set(
            "membership.msgs_per_node_s",
            ratio(totals.messages.membership_sent as f64, node_seconds),
        );
        out.set(
            "slicing.msgs_per_node_s",
            ratio(totals.messages.slicing_sent as f64, node_seconds),
        );
        out.set(
            "slicing.slice_changes_per_node",
            ratio(totals.stats.slice_changes as f64, nodes),
        );
        out.set(
            "slicing.populated_slices_frac",
            ratio(totals.populated_slices as f64, f64::from(totals.slices)),
        );
        out.set("bench.traced_ops_per_s", ratio(sim_s, wall_s));
        for (name, ns) in layers::run() {
            out.set(name, ns);
        }
    }
    report
}
