//! The discrete-event simulator behind the churn scenario of `BENCH_sim`'s
//! rows: warm-up, a churn window with writes riding on it, reads trailing
//! their writes, drain.

use dataflasks::prelude::{
    Duration, Key, NodeConfig, OperationOutcome, SimConfig, Simulation, Value, Version,
};

use super::{NodeTotals, Outcome};

/// The scenario's shape. Everything but the node count is what `sim_bench`
/// tracks in `BENCH_sim.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimShape {
    /// Node count.
    pub nodes: usize,
    /// Nodes per slice (slice count = nodes ÷ this).
    pub slice_nodes: usize,
    /// Simulated seconds of gossip before the scenario starts.
    pub warmup_s: u64,
    /// Puts spread over the 20 s churn window.
    pub puts: usize,
    /// Gets, each 15 s behind the put of its key.
    pub gets: usize,
    /// Percent of the cluster that crashes — and as many that join — over
    /// the churn window.
    pub churn_pct: usize,
}

/// Simulated seconds from the start of the churn window to the end of the
/// drain: churn and writes for 20 s, reads from 15 s to 35 s, then 10 s for
/// every straggler to reach its 5 s client timeout.
pub const SCENARIO_S: u64 = 45;
const CHURN_WINDOW_S: u64 = 20;
const READ_LAG_S: u64 = 15;
const VALUE_SIZE: usize = 128;
const FILL: u8 = 7;

impl SimShape {
    /// Slice count of the shape.
    pub fn slices(&self) -> u32 {
        (self.nodes / self.slice_nodes).max(2) as u32
    }

    /// Simulated seconds of the whole run.
    pub fn sim_seconds(&self) -> u64 {
        self.warmup_s + SCENARIO_S
    }
}

/// The simulator's own counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Events dispatched (deliveries, timers, client traffic, churn).
    pub events: u64,
    /// Protocol timers handled by a live node.
    pub timer_fires: u64,
    /// Messages the network delivered.
    pub delivered: u64,
    /// Messages the network dropped.
    pub dropped: u64,
}

/// What the scenario's client saw, with every served object checked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimClientReport {
    /// Puts issued.
    pub puts: u64,
    /// Puts a replica acknowledged.
    pub puts_acked: u64,
    /// Gets issued.
    pub gets: u64,
    /// Gets a replica served.
    pub gets_hit: u64,
    /// Gets the responsible slice answered "not found", and nothing else.
    pub gets_missed: u64,
    /// Served objects with the wrong key, version, length or fill byte.
    pub wrong_objects: u64,
}

/// One simulation of the churn scenario.
pub struct SimRun {
    sim: Simulation,
    shape: SimShape,
    client: Option<u64>,
}

impl SimRun {
    /// Spawns the cluster (the scenario's set-up). Constant ~200-node
    /// slices, protocol periods at their defaults, global fanout 4 — the
    /// tracked `sim_bench` configuration.
    pub fn spawn(shape: SimShape, seed: u64) -> Self {
        let mut config = NodeConfig::for_system_size(shape.nodes, shape.slices());
        config.dissemination.global_fanout = 4;
        let mut sim = Simulation::new(SimConfig {
            // `sim_bench` folds the node count into its seed; so does this,
            // so its tracked seed reproduces its tracked row.
            seed: seed ^ ((shape.nodes as u64) << 32),
            client_timeout: Duration::from_secs(5),
            ..SimConfig::default()
        });
        sim.spawn_cluster(shape.nodes, config);
        Self {
            sim,
            shape,
            client: None,
        }
    }

    /// Advances virtual time by `seconds`.
    pub fn run_for(&mut self, seconds: u64) {
        self.sim.run_for(Duration::from_secs(seconds));
    }

    /// Schedules churn, writes and reads from the current instant on. Call
    /// once, after the warm-up.
    pub fn schedule_scenario(&mut self) {
        let shape = self.shape;
        let churn = shape.nodes * shape.churn_pct / 100;
        let start = self.sim.now();
        self.sim.schedule_churn(
            start,
            start + Duration::from_secs(CHURN_WINDOW_S),
            churn,
            churn,
        );
        let client = self.sim.add_client();
        self.client = Some(client);
        let put_gap_ms = CHURN_WINDOW_S * 1_000 / shape.puts.max(1) as u64;
        for i in 0..shape.puts {
            self.sim.schedule_put(
                start + Duration::from_millis(i as u64 * put_gap_ms),
                client,
                key_of(i),
                Version::new(1),
                Value::filled(VALUE_SIZE, FILL),
            );
        }
        let get_gap_ms = CHURN_WINDOW_S * 1_000 / shape.gets.max(1) as u64;
        for i in 0..shape.gets {
            self.sim.schedule_get(
                start
                    + Duration::from_secs(READ_LAG_S)
                    + Duration::from_millis(i as u64 * get_gap_ms),
                client,
                key_of(i % shape.puts.max(1)),
                None,
            );
        }
    }

    /// The simulator's counters now.
    pub fn counters(&self) -> SimCounters {
        SimCounters {
            events: self.sim.events_dispatched(),
            timer_fires: self.sim.timer_fires(),
            delivered: self.sim.messages_delivered(),
            dropped: self.sim.messages_dropped(),
        }
    }

    /// Nodes alive now.
    pub fn alive(&self) -> usize {
        self.sim.alive_count()
    }

    /// What the scenario's client saw; every served object is checked
    /// against what was written.
    pub fn client_report(&self) -> SimClientReport {
        let Some(stats) = self
            .client
            .and_then(|id| self.sim.client(id))
            .map(|c| c.stats())
        else {
            return SimClientReport::default();
        };
        let wrong_objects = self
            .sim
            .completed_operations()
            .iter()
            .filter(|op| match &op.outcome {
                OperationOutcome::GetHit { object } => {
                    Outcome::hit(object.key, object.version, &object.value)
                        != Outcome::Hit {
                            key: op.key,
                            version: 1,
                            len: VALUE_SIZE,
                            fill: Some(FILL),
                        }
                }
                _ => false,
            })
            .count() as u64;
        SimClientReport {
            puts: stats.puts_issued,
            puts_acked: stats.puts_acked,
            gets: stats.gets_issued,
            gets_hit: stats.gets_hit,
            gets_missed: stats.gets_missed,
            wrong_objects,
        }
    }

    /// Summed counters of the nodes alive now, and the slice census.
    pub fn node_totals(&self) -> NodeTotals {
        let stats = self.sim.node_stats();
        let populated = self.sim.slice_populations().len();
        let mut totals = NodeTotals::collect(stats.iter().map(|s| (s, None)), self.shape.slices());
        totals.populated_slices = populated;
        totals
    }
}

fn key_of(i: usize) -> Key {
    Key::from_user_key(&format!("sim-bench-{i}"))
}
