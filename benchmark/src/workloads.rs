//! The benchmark's workloads and the two sizes they run at.

use crate::adapter::cluster::{Backend, ClusterShape};
use crate::adapter::sim::SimShape;
use crate::adapter::{KeyDistribution, WorkloadSpec};

/// The default seed: `sim_bench`'s tracked one, so `sim_churn_10k` at the
/// default reproduces the `BENCH_sim.json` row event for event.
pub const DEFAULT_SEED: u64 = 0x51B3;

/// A client mix driven against a cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterLoad {
    /// Which runtime hosts the cluster.
    pub backend: Backend,
    /// Share of gets; the rest are versioned overwrites.
    pub read_fraction: f64,
    /// How keys are drawn.
    pub distribution: KeyDistribution,
    /// Records, all preloaded at version 1.
    pub records: usize,
    /// Bytes per value.
    pub value_size: usize,
    /// Seconds of load before the window opens. The first two seconds after
    /// a preload are a transient on every workload (the pipeline fills
    /// against idle nodes; ~8 % above the plateau). A write-heavy cluster
    /// also runs ~25 % above its plateau until every record has the four
    /// versions the store keeps — 3 × records puts at the plateau's rate.
    pub lead_in_s: u64,
}

impl ClusterLoad {
    /// The generator spec of this mix (an unbounded transaction phase: the
    /// closed loop draws operations until its window ends).
    pub fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            read_proportion: self.read_fraction,
            update_proportion: 1.0 - self.read_fraction,
            insert_proportion: 0.0,
            ..WorkloadSpec::workload_a(self.records, usize::MAX)
        }
        .with_key_distribution(self.distribution)
        .with_value_size(self.value_size)
    }
}

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A closed loop of 64 tickets against a warm cluster.
    Cluster(ClusterLoad),
    /// The simulator's churn scenario (a fixed job: `--seconds` does not
    /// scale it).
    Sim,
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// The name later issues refer to.
    pub name: &'static str,
    /// Why the workload exists (one line, ≤ 200 characters).
    pub why: &'static str,
    /// What it runs.
    pub kind: Kind,
}

const READ_HEAVY: ClusterLoad = ClusterLoad {
    backend: Backend::Socket,
    read_fraction: 0.95,
    distribution: KeyDistribution::Zipfian { theta: 0.99 },
    records: 200,
    value_size: 128,
    lead_in_s: 2,
};

/// Every workload, in the order `all` runs them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "socket_read_heavy",
        why: "Deployment path over TCP loopback, 95% gets, Zipfian 200 keys, 128 B: net_env reactor, writev, reassembly and arena plus core wire, sched and gateway all on the critical path.",
        kind: Kind::Cluster(READ_HEAVY),
    },
    Workload {
        name: "async_read_heavy",
        why: "Same spec, mix, keys and seed without sockets: a net_env gain must leave this flat, a core node/wire/sched gain moves both; the gap is the price of the transport.",
        kind: Kind::Cluster(ClusterLoad {
            backend: Backend::Async,
            ..READ_HEAVY
        }),
    },
    Workload {
        name: "socket_write_heavy",
        why: "95% puts, uniform over 2000 keys, 1 KiB values: every put floods a whole slice, so encode size, writev bytes, store put, dedup and anti-entropy dominate; a read-path gain that costs writes shows.",
        kind: Kind::Cluster(ClusterLoad {
            backend: Backend::Socket,
            read_fraction: 0.05,
            distribution: KeyDistribution::Uniform,
            records: 2_000,
            value_size: 1_024,
            // 6 000 puts at ~800 ops/s.
            lead_in_s: 8,
        }),
    },
    Workload {
        name: "sim_churn_10k",
        why: "Simulator at 10000 nodes, 50 slices, 1% crash + 1% join with 800 puts and 800 trailing gets (BENCH_sim's 10k row): sim, wheel, membership, slicing, store; no wire, sched or sockets.",
        kind: Kind::Sim,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The sizes a run uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Cluster size of the three cluster workloads.
    pub cluster: ClusterShape,
    /// How many times the set-up is performed (its median is `setup_s`).
    pub setups: usize,
    /// Longest lead-in, seconds (a workload may ask for less).
    pub max_lead_in_s: u64,
    /// Seconds of the traced run's one-ticket-at-a-time phase.
    pub unloaded_s: f64,
    /// The simulator scenario.
    pub sim: SimShape,
}

impl Scale {
    /// The tracked sizes: the historical 220-node / 4-slice cluster and
    /// `BENCH_sim`'s 10k row.
    pub const FULL: Self = Self {
        cluster: ClusterShape {
            nodes: 220,
            slices: 4,
        },
        setups: 3,
        max_lead_in_s: u64::MAX,
        unloaded_s: 2.0,
        sim: SimShape {
            nodes: 10_000,
            slice_nodes: 200,
            warmup_s: 60,
            puts: 800,
            gets: 800,
            churn_pct: 1,
        },
    };

    /// `--smoke`: small enough for CI (60 nodes, a 1k-node simulation, one
    /// set-up). Smoke numbers are never compared with tracked ones.
    pub const SMOKE: Self = Self {
        cluster: ClusterShape {
            nodes: 60,
            slices: 2,
        },
        setups: 1,
        max_lead_in_s: 2,
        unloaded_s: 0.5,
        sim: SimShape {
            nodes: 1_000,
            ..Self::FULL.sim
        },
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_table_fits_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        for workload in WORKLOADS {
            assert!(workload.why.len() <= 200, "{} why too long", workload.name);
            assert!(!workload.why.contains('\n'));
            assert!(find(workload.name).is_some());
        }
        assert!(find("no_such_workload").is_none());
    }

    #[test]
    fn mixes_normalise() {
        let Kind::Cluster(load) = WORKLOADS[2].kind else {
            panic!("third workload is a cluster workload");
        };
        let spec = load.spec();
        assert!((spec.total_weight() - 1.0).abs() < 1e-9);
        assert_eq!(spec.value_size, 1_024);
        assert_eq!(spec.key_distribution, KeyDistribution::Uniform);
    }
}
