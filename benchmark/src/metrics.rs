//! Every metric the benchmark reports, declared once: name, unit, which
//! direction is better, and — for the per-layer metrics — which end-to-end
//! metric it is expected to move. `BENCHMARK.json`, the README tables and
//! what a run prints are all checked against these tables (`check`).

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Dotted name; the part before the last dot is the layer (module).
    pub name: &'static str,
    /// Unit, in `BENCHMARK.json`'s alphabet.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The end-to-end metric(s) a change in this one should move, and on
    /// which workloads (empty for the end-to-end metrics themselves). Read by
    /// the test that holds the README's tables to this one.
    #[cfg_attr(not(test), allow(dead_code))]
    pub moves: &'static str,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        moves,
        bound: 0.0,
    }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        moves,
        bound: 0.0,
    }
}

const fn bounded(def: MetricDef, bound: f64) -> MetricDef {
    MetricDef { bound, ..def }
}

/// What a user of the system sees; measured with tracing off. Each is
/// reported by every workload and carries a regression bound in
/// `BENCHMARK.json`.
pub const END_TO_END: &[MetricDef] = &[
    bounded(lower("setup_s", "s", ""), 0.25),
    bounded(higher("ops_per_s", "1/s", ""), 0.25),
    bounded(lower("cpu_us_per_op", "us", ""), 0.25),
];

const CLUSTER: &str = "cpu_us_per_op, ops_per_s on the three cluster workloads";
const READ_PATH: &str = "ops_per_s, cpu_us_per_op on socket_read_heavy, async_read_heavy";
const SOCKET: &str = "cpu_us_per_op, ops_per_s on socket_read_heavy, socket_write_heavy; none on async_read_heavy, sim_churn_10k";
const ASYNC: &str = "cpu_us_per_op, ops_per_s on async_read_heavy only";
const WIRE: &str = "cpu_us_per_op: put1k on socket_write_heavy, the others on both read-heavy workloads; none on sim_churn_10k";
const CALLS: &str = "cpu_us_per_op, ops_per_s on the cluster workloads; none on sim_churn_10k";
const NODE: &str = "cpu_us_per_op everywhere; timers move ops_per_s on sim_churn_10k";
const STORE: &str =
    "ops_per_s, cpu_us_per_op on socket_write_heavy; bench.peak_rss_mb on sim_churn_10k";
const GOSSIP: &str = "ops_per_s on sim_churn_10k (gossip is most of its events)";
const WHEEL: &str = "ops_per_s on sim_churn_10k (a quarter of its events are timers)";
const SIM: &str = "ops_per_s, cpu_us_per_op on sim_churn_10k";
const VALIDITY: &str = "the validity of the run, not the program";

/// Single-layer numbers from the traced run (counters, spans, the layer
/// pass). No bounds: they explain a change, they do not gate it. A metric
/// that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // Dissemination: the multiplier on every per-message cost below.
    lower("core.node.request_msgs_per_op", "count", CLUSTER),
    lower("core.node.reply_msgs_per_op", "count", CLUSTER),
    lower("core.node.puts_stored_per_put", "count", CLUSTER),
    lower("core.node.gets_hit_per_get", "count", CLUSTER),
    lower("core.node.requests_expired_per_op", "count", CLUSTER),
    lower("core.dedup.duplicate_frac", "ratio", CLUSTER),
    // The client path.
    lower("core.gateway.replies_routed_per_op", "count", READ_PATH),
    lower("core.gateway.inflight_high_water", "count", READ_PATH),
    lower("core.gateway.submit_call_p50_us", "us", READ_PATH),
    lower("core.gateway.submit_call_p99_us", "us", READ_PATH),
    lower("core.gateway.poll_call_p50_us", "us", READ_PATH),
    lower("core.gateway.unloaded_get_p50_us", "us", READ_PATH),
    lower("core.gateway.unloaded_put_p50_us", "us", READ_PATH),
    lower("bench.client_cpu_us_per_op", "us", READ_PATH),
    // The socket runtime.
    lower("net_env.worker_cpu_us_per_op", "us", SOCKET),
    lower("net_env.io_cpu_us_per_op", "us", SOCKET),
    lower("net_env.io_sys_frac", "ratio", SOCKET),
    lower("net_env.timer_cpu_us_per_op", "us", SOCKET),
    lower("net_env.dials", "count", SOCKET),
    lower("net_env.dial_retries", "count", SOCKET),
    lower("net_env.saturation_events", "count", SOCKET),
    lower("net_env.arena_fresh_per_kop", "count", SOCKET),
    higher("net_env.arena_recycled_frac", "ratio", SOCKET),
    lower("net_env.reactor_stale_events", "count", SOCKET),
    lower("net_env.wire_rejects", "count", SOCKET),
    lower("net_env.reassembly_recut_ns", "ns", SOCKET),
    // The in-process runtime.
    lower("async_env.worker_cpu_us_per_op", "us", ASYNC),
    lower("async_env.timer_cpu_us_per_op", "us", ASYNC),
    lower("async_env.saturation_events", "count", ASYNC),
    // Direct calls (the layer pass).
    lower("core.wire.encode_put128_ns", "ns", WIRE),
    lower("core.wire.decode_put128_ns", "ns", WIRE),
    lower("core.wire.encode_put1k_ns", "ns", WIRE),
    lower("core.wire.decode_put1k_ns", "ns", WIRE),
    lower("core.wire.encode_batch16_ns", "ns", WIRE),
    lower("core.wire.decode_batch16_ns", "ns", WIRE),
    lower("core.sched.inbox_push_pop_ns", "ns", CALLS),
    lower("core.sched.mark_next_finish_ns", "ns", CALLS),
    lower("core.dedup.first_sighting_ns", "ns", CALLS),
    lower("core.gateway.register_route_ns", "ns", CALLS),
    lower("core.node.contact_put_ns", "ns", NODE),
    lower("core.node.replica_put_ns", "ns", NODE),
    lower("core.node.replica_get_ns", "ns", NODE),
    lower("core.node.shuffle_timer_ns", "ns", NODE),
    lower("core.node.slicing_timer_ns", "ns", NODE),
    lower("core.node.ae_timer_ns", "ns", NODE),
    lower("store.put_ns", "ns", STORE),
    lower("store.get_ns", "ns", STORE),
    lower("store.range_digest_ns", "ns", STORE),
    lower("membership.shuffle_ns", "ns", GOSSIP),
    lower("slicing.merge_ns", "ns", GOSSIP),
    lower("core.wheel.arm_ns", "ns", WHEEL),
    lower("core.wheel.advance_ns", "ns", WHEEL),
    lower("workload.schedule_gen_ns", "ns", VALIDITY),
    // Background protocols, per node per second of cluster life.
    lower("store.ae_msgs_per_node_s", "1/s", STORE),
    lower("store.objects_repaired_per_s", "1/s", STORE),
    higher("store.ae_chunks_skipped_per_node_s", "1/s", STORE),
    lower("membership.msgs_per_node_s", "1/s", GOSSIP),
    lower("slicing.msgs_per_node_s", "1/s", GOSSIP),
    lower("slicing.slice_changes_per_node", "count", GOSSIP),
    higher("slicing.populated_slices_frac", "ratio", GOSSIP),
    // The simulator.
    higher("sim.events_per_s", "1/s", SIM),
    lower("sim.ns_per_event", "ns", SIM),
    lower("sim.events_dispatched", "count", SIM),
    lower("sim.events_per_sim_s", "count", SIM),
    lower("sim.timer_fires_per_sim_s", "count", SIM),
    lower("sim.msgs_delivered_per_sim_s", "count", SIM),
    lower("sim.msgs_dropped", "count", SIM),
    lower("sim.warmup_wall_ms_per_sim_s", "ms", SIM),
    lower("sim.churn_wall_ms_per_sim_s", "ms", SIM),
    lower("sim.read_wall_ms_per_sim_s", "ms", SIM),
    lower("sim.drain_wall_ms_per_sim_s", "ms", SIM),
    lower("sim.step_wall_p99_ms", "ms", SIM),
    lower("sim.spawn_us_per_node", "us", SIM),
    lower("sim.rss_kb_per_node", "kB", SIM),
    higher("sim.put_ack_frac", "ratio", SIM),
    higher("sim.get_hit_frac", "ratio", SIM),
    lower("core.node.request_msgs_per_node", "count", SIM),
    lower("core.node.total_msgs_per_node", "count", SIM),
    lower("store.objects_repaired", "count", SIM),
    // Is the run itself believable?
    lower("bench.drift_frac", "ratio", VALIDITY),
    higher("bench.traced_ops_per_s", "1/s", VALIDITY),
    lower("bench.client_cpu_frac", "ratio", VALIDITY),
    lower("bench.invol_ctx_switches_per_s", "1/s", VALIDITY),
    lower("bench.get_p50_us", "us", VALIDITY),
    lower("bench.get_p99_us", "us", VALIDITY),
    lower("bench.put_p50_us", "us", VALIDITY),
    lower("bench.put_p99_us", "us", VALIDITY),
    lower("bench.stale_read_frac", "ratio", VALIDITY),
    lower("bench.retried_frac", "ratio", VALIDITY),
    lower("bench.failed_frac", "ratio", VALIDITY),
    lower("bench.peak_rss_mb", "MB", VALIDITY),
];

/// Values of one declared table, filled in by a run. Unset names read 0,
/// which is what "does not apply to this workload" prints as.
#[derive(Debug, Clone)]
pub struct Values {
    table: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    /// An empty value set over `table`.
    pub fn new(table: &'static [MetricDef]) -> Self {
        Self {
            table,
            values: BTreeMap::new(),
        }
    }

    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared in the table: a misspelt metric
    /// must not silently vanish from the output.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = self
            .table
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values
            .insert(def.name, if value.is_finite() { value } else { 0.0 });
    }

    /// The value recorded under `name` (0 if none was).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Every declared metric with its value, in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.table.iter().map(|d| (d, self.get(d.name)))
    }
}

/// `part ÷ whole`, or 0 when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn declared_names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(crate::manifest::valid_name(def.name), "{}", def.name);
            assert!(valid_unit(def.unit), "{} unit {}", def.name, def.unit);
            assert!(seen.insert(def.name), "{} declared twice", def.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }

    #[test]
    fn values_default_to_zero_and_reject_unknown_names() {
        let mut values = Values::new(END_TO_END);
        values.set("ops_per_s", 12.5);
        values.set("setup_s", f64::NAN);
        assert_eq!(values.get("ops_per_s"), 12.5);
        assert_eq!(values.get("setup_s"), 0.0);
        assert_eq!(values.get("cpu_us_per_op"), 0.0);
        assert_eq!(values.iter().count(), END_TO_END.len());
        let unknown = std::panic::catch_unwind(|| {
            let mut values = Values::new(END_TO_END);
            values.set("no_such_metric", 1.0);
        });
        assert!(unknown.is_err());
    }
}
