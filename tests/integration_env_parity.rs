//! Environment parity: the same seeded put/get/churn scenario driven through
//! every [`Environment`] implementation — the discrete-event [`Simulation`]
//! as the reference, the event-driven [`AsyncCluster`] and the socket-backed
//! [`SocketCluster`] (every hop over real TCP/UDS connections) — produces
//! identical client-visible outcomes and identical per-node [`NodeStats`].
//!
//! All environments materialise the same [`ClusterSpec`] (identical node
//! seeds, capacities and warm full-mesh membership) and are driven through
//! the shared `Environment` trait only. The scenario is constructed to be
//! order-independent so thread scheduling cannot change the outcome:
//!
//! * fan-outs cover every known peer (fanout ≥ cluster size), so target
//!   selection does not depend on how much randomness a node consumed,
//! * TTLs are ample, so no request dies of hop-count mid-flood and
//!   duplicate suppression alone terminates the epidemic,
//! * contacts are members of the target slice, so dissemination stays
//!   intra-slice and deterministic,
//! * protocol timers are configured far beyond the test horizon, so only
//!   request traffic flows.
//!
//! Beyond the scripted scenario, `random_scenarios_agree_across_environments`
//! generalises this into cross-environment differential fuzzing: randomly
//! generated seeded scenarios — puts, gets, multi-put saturation bursts,
//! slicing-gossip and anti-entropy rounds, node crashes *and crash→restart
//! rejoins*, plus nemesis fault windows (partition/heal, total-loss,
//! asymmetric blocked links — the subset of [`FaultPlan`] faults that is a
//! pure function of `(from, to)` and therefore replayable on concurrent
//! runtimes) — are driven through all
//! three backends and must produce identical client-visible replies and
//! identical per-node [`NodeStats`], including the injected-fault counters. For the socket backend a restart also
//! closes and re-establishes the node's connections, so the fuzzer exercises
//! the dial/re-dial path as a side effect. Restarts make the anti-entropy traffic
//! meaningful: a rejoined replica has lost its volatile store, so the
//! incremental per-chunk exchanges must actually repair divergence instead
//! of comparing identical replicas (see
//! `restarted_replica_converges_via_incremental_anti_entropy`).

use std::collections::HashMap;
use std::sync::Arc;

use dataflasks::core::{ClientReply, ReplyBody};
use dataflasks::prelude::*;
use proptest::prelude::*;

const CLIENT: u64 = 42;

/// Client id of the simulator side of pipelined-burst steps: a dedicated
/// environment client, so its replies never mix with `CLIENT`'s drains.
const PIPELINE_CLIENT: u64 = 43;

/// The async backend is exercised in its most concurrent configuration: four
/// workers over a handful of nodes (so a node's consecutive rounds land on
/// different workers and cross-worker routing is constant), with tiny
/// bounded mailboxes (so frame delivery saturates and the deferred-delivery
/// path runs). Parity must hold regardless.
fn async_cluster_under_stress(spec: &ClusterSpec) -> AsyncCluster {
    AsyncCluster::start_spec_with(
        spec,
        AsyncClusterConfig {
            workers: 4,
            mailbox_capacity: 2,
        },
    )
}

/// The socket backend under the same stress, plus a real transport: four
/// workers, tiny bounded mailboxes (saturation propagates to the kernel
/// socket buffers), every hop dialed and framed over the given family.
fn socket_cluster_under_stress(
    spec: &ClusterSpec,
    transport: SocketTransportKind,
) -> SocketCluster {
    SocketCluster::start_spec_with(
        spec,
        SocketClusterConfig {
            workers: 4,
            mailbox_capacity: 2,
            transport,
            ..SocketClusterConfig::default()
        },
    )
}

fn parity_spec() -> ClusterSpec {
    let mut config = NodeConfig::for_system_size(6, 2);
    // Full-coverage dissemination: every fan-out reaches the whole view.
    config.pss.view_size = 16;
    config.pss.intra_view_size = 16;
    config.dissemination.global_fanout = 16;
    config.dissemination.intra_fanout = 16;
    config.dissemination.intra_ttl = 32;
    config.dissemination.global_ttl = 32;
    // Periodic gossip is pushed far beyond the test horizon in every
    // environment: only request traffic flows.
    let far = Duration::from_secs(1 << 26);
    config.pss.shuffle_period = far;
    config.slicing.gossip_period = far;
    config.replication.anti_entropy_period = far;
    ClusterSpec::new(config, vec![100, 900, 300, 4_000, 2_000, 700], 0xA11CE)
}

/// The scripted scenario, expressed purely against the `Environment` trait.
/// Returns the normalised replies of each step.
fn run_scenario<E: Environment>(
    env: &mut E,
    spec: &ClusterSpec,
    budget: Duration,
) -> Vec<Vec<String>> {
    // Plan against a private materialisation of the same spec: slice layout
    // and responsibility are deterministic functions of the spec.
    let plan = spec.build_nodes();
    let key = Key::from_user_key("parity-object");
    let other_key = Key::from_user_key("parity-second");
    let target = plan[0].partition().slice_of(key);
    let members: Vec<NodeId> = plan
        .iter()
        .filter(|n| n.slice() == Some(target))
        .map(|n| n.id())
        .collect();
    assert!(
        members.len() >= 3,
        "scenario needs at least three replicas, got {members:?}"
    );
    let contact = members[0];
    let victim = members[1];
    let other_target = plan[0].partition().slice_of(other_key);
    let other_contact = plan
        .iter()
        .find(|n| n.slice() == Some(other_target))
        .map(DataFlasksNode::id)
        .expect("both slices are populated");

    let mut steps = Vec::new();

    // Step 1: put through a responsible contact; every replica acks.
    env.submit_client_request(
        CLIENT,
        contact,
        ClientRequest::Put {
            id: RequestId::new(CLIENT, 0),
            key,
            version: Version::new(1),
            value: Value::from_bytes(b"epidemic"),
        },
    );
    steps.push(normalise(env.drain_effects(budget)));

    // Step 2: read it back through another replica; every replica answers.
    env.submit_client_request(
        CLIENT,
        members[2],
        ClientRequest::Get {
            id: RequestId::new(CLIENT, 1),
            key,
            version: None,
        },
    );
    steps.push(normalise(env.drain_effects(budget)));

    // Step 3: a put on the other slice, exercising the second replica group.
    env.submit_client_request(
        CLIENT,
        other_contact,
        ClientRequest::Put {
            id: RequestId::new(CLIENT, 2),
            key: other_key,
            version: Version::new(1),
            value: Value::from_bytes(b"other-slice"),
        },
    );
    steps.push(normalise(env.drain_effects(budget)));

    // Between steps: inject one slicing-gossip round on the contact through
    // the Environment interface. Both backends must process the firing
    // identically — once, superseding the pending periodic chain rather
    // than duplicating it — with the gossip traffic absorbed before the
    // next step's drain.
    env.fire_timer(contact, TimerKind::SliceGossip);

    // Step 4 (churn): crash one replica, then overwrite and re-read the
    // object — the survivors carry on, the dead node stays silent.
    env.fail_node(victim);
    env.submit_client_request(
        CLIENT,
        contact,
        ClientRequest::Put {
            id: RequestId::new(CLIENT, 3),
            key,
            version: Version::new(2),
            value: Value::from_bytes(b"after-churn"),
        },
    );
    steps.push(normalise(env.drain_effects(budget)));

    env.submit_client_request(
        CLIENT,
        contact,
        ClientRequest::Get {
            id: RequestId::new(CLIENT, 4),
            key,
            version: None,
        },
    );
    steps.push(normalise(env.drain_effects(budget)));

    steps
}

/// Replies arrive in environment-specific order; compare them as sorted
/// renderings (the full reply content, not just counts).
fn normalise(replies: Vec<ClientReply>) -> Vec<String> {
    let mut rendered: Vec<String> = replies.iter().map(|r| format!("{r:?}")).collect();
    rendered.sort();
    rendered
}

// ---------------------------------------------------------------------------
// Pipelined-burst parity: the ticket API versus the raw Environment
// ---------------------------------------------------------------------------

/// One pipelined put of a burst: `(contact, id, key, version, value)`. The
/// id is used by the simulator side only — the ticket backends mint their
/// own ids from the gateway's private namespace.
type BurstPut = (NodeId, RequestId, Key, Version, Value);

/// The per-operation rendering of a pipelined put, responder-independent:
/// the first replica to ack a put differs across backends, so the outcome
/// is rendered from what was submitted, not from who answered.
fn acked_render(key: Key, version: Version) -> String {
    format!("Acked {{ key: {key:?}, version: {version:?} }}")
}

/// Backend-specific half of the pipelined-burst parity step: all puts are
/// in flight *before* the first await. The concurrent backends run it on
/// the pipelined submit/await ticket API (the surface this step exists to
/// test); the simulator has no ticket API, so it submits through the
/// `Environment` and reduces the drained replies to the same rendering.
/// A dead contact renders "Unavailable" everywhere: the ticket backends
/// refuse the submit, the simulator's flood never happens.
trait PipelinedParity: Environment {
    fn pipelined_burst(&mut self, puts: &[BurstPut], budget: Duration) -> Vec<String>;
}

impl PipelinedParity for Simulation {
    fn pipelined_burst(&mut self, puts: &[BurstPut], budget: Duration) -> Vec<String> {
        for (contact, id, key, version, value) in puts {
            self.submit_client_request(
                PIPELINE_CLIENT,
                *contact,
                ClientRequest::Put {
                    id: *id,
                    key: *key,
                    version: *version,
                    value: value.clone(),
                },
            );
        }
        let replies = self.drain_effects(budget);
        puts.iter()
            .map(|(_, id, key, version, _)| {
                let acked = replies
                    .iter()
                    .any(|r| r.request == *id && matches!(r.body, ReplyBody::PutAck { .. }));
                if acked {
                    acked_render(*key, *version)
                } else {
                    "Unavailable".to_string()
                }
            })
            .collect()
    }
}

macro_rules! pipelined_parity_via_tickets {
    ($cluster:ty) => {
        impl PipelinedParity for $cluster {
            fn pipelined_burst(&mut self, puts: &[BurstPut], budget: Duration) -> Vec<String> {
                // Submit everything first: every put is in flight before the
                // first await, so the completion router must route replies
                // arriving for *other* tickets while one is being awaited.
                let tickets: Vec<Option<Ticket>> = puts
                    .iter()
                    .map(|(contact, _, key, version, value)| {
                        self.submit_put(Some(*contact), *key, *version, value.clone(), budget)
                            .ok()
                    })
                    .collect();
                tickets
                    .iter()
                    .zip(puts)
                    .map(|(ticket, (_, _, key, version, _))| match ticket {
                        Some(ticket) => match self.await_ticket(*ticket, budget) {
                            Ok(TicketOutcome::Acked(_)) => acked_render(*key, *version),
                            other => format!("unexpected pipelined outcome: {other:?}"),
                        },
                        None => "Unavailable".to_string(),
                    })
                    .collect()
            }
        }
    };
}

pipelined_parity_via_tickets!(AsyncCluster);
pipelined_parity_via_tickets!(SocketCluster);

/// Uniform access to each backend's shared [`FaultPlan`], so the fuzzer's
/// nemesis windows (partition / heal / loss / asymmetric block) drive the
/// same fault state through every environment. Only faults that are pure
/// functions of `(from, to)` — partitions, blocked links, loss at
/// `p ∈ {0, 1}` — are replayable across backends; fractional probabilities,
/// duplication, reordering and corruption stay in the sim-only nemesis
/// tests.
trait FaultControl {
    fn nemesis_plan(&self) -> Arc<FaultPlan>;
}

macro_rules! fault_control_via_plan {
    ($env:ty) => {
        impl FaultControl for $env {
            fn nemesis_plan(&self) -> Arc<FaultPlan> {
                self.fault_plan()
            }
        }
    };
}

fault_control_via_plan!(Simulation);
fault_control_via_plan!(AsyncCluster);
fault_control_via_plan!(SocketCluster);

/// Asserts two backends produced identical per-step replies and stats.
fn assert_backend_parity(
    label: &str,
    reference_steps: &[Vec<String>],
    steps: &[Vec<String>],
    reference_stats: &HashMap<NodeId, NodeStats>,
    stats: &HashMap<NodeId, NodeStats>,
) {
    assert_eq!(reference_steps.len(), steps.len());
    for (step, (reference_replies, replies)) in reference_steps.iter().zip(steps).enumerate() {
        assert_eq!(
            reference_replies, replies,
            "step {step}: {label} disagrees on client-visible replies"
        );
    }
    assert_eq!(reference_stats.len(), stats.len());
    for (id, reference_node_stats) in reference_stats {
        let node_stats = stats
            .get(id)
            .unwrap_or_else(|| panic!("{label} lost node {id}"));
        assert_eq!(
            reference_node_stats, node_stats,
            "node {id}: {label} disagrees on NodeStats"
        );
    }
}

/// The four environments: the simulator (the reference), the async runtime,
/// and the socket runtime over TCP and over Unix-domain sockets.
#[test]
fn all_four_environments_produce_identical_outcomes_and_stats() {
    let spec = parity_spec();

    // --- Discrete-event simulation ---------------------------------------
    let mut sim = Simulation::new(SimConfig {
        seed: spec.seed,
        ..SimConfig::default()
    });
    sim.spawn_spec(&spec);
    // Virtual budget: dissemination takes a handful of sub-50ms hops.
    let sim_steps = run_scenario(&mut sim, &spec, Duration::from_secs(20));
    let sim_stats: HashMap<NodeId, NodeStats> = spec
        .node_ids()
        .map(|id| (id, *sim.node(id).stats()))
        .collect();

    // --- Event-driven runtime (framed transport, 4 workers, backpressure) ---
    let mut async_cluster = async_cluster_under_stress(&spec);
    assert_eq!(async_cluster.worker_count(), 4);
    // Wall-clock budget: in-process hops take microseconds; the drain exits
    // on quiescence well before the cap.
    let async_steps = run_scenario(&mut async_cluster, &spec, Duration::from_secs(10));
    let async_stats: HashMap<NodeId, NodeStats> = async_cluster
        .shutdown()
        .into_iter()
        .map(|n| (n.id(), *n.stats()))
        .collect();

    // --- Socket runtime: the same scenario with every hop over real TCP ---
    let mut socket_cluster = socket_cluster_under_stress(&spec, SocketTransportKind::Tcp);
    let socket_steps = run_scenario(&mut socket_cluster, &spec, Duration::from_secs(10));
    assert_eq!(
        socket_cluster.wire_reject_count(),
        0,
        "a healthy loopback cluster never rejects frames"
    );
    let socket_stats: HashMap<NodeId, NodeStats> = socket_cluster
        .shutdown()
        .into_iter()
        .map(|n| (n.id(), *n.stats()))
        .collect();

    // --- And over Unix-domain sockets, where the platform has them --------
    #[cfg(unix)]
    let uds_results = {
        let mut uds_cluster = socket_cluster_under_stress(&spec, SocketTransportKind::Unix);
        let steps = run_scenario(&mut uds_cluster, &spec, Duration::from_secs(10));
        let stats: HashMap<NodeId, NodeStats> = uds_cluster
            .shutdown()
            .into_iter()
            .map(|n| (n.id(), *n.stats()))
            .collect();
        (steps, stats)
    };

    for (step, replies) in sim_steps.iter().enumerate() {
        assert!(
            !replies.is_empty(),
            "step {step} produced no replies in the simulator"
        );
    }
    assert_backend_parity(
        "async runtime",
        &sim_steps,
        &async_steps,
        &sim_stats,
        &async_stats,
    );
    assert_backend_parity(
        "socket runtime (tcp)",
        &sim_steps,
        &socket_steps,
        &sim_stats,
        &socket_stats,
    );
    #[cfg(unix)]
    assert_backend_parity(
        "socket runtime (unix)",
        &sim_steps,
        &uds_results.0,
        &sim_stats,
        &uds_results.1,
    );

    // Sanity: the scenario actually exercised the request path.
    let total_requests: u64 = sim_stats.values().map(NodeStats::request_messages).sum();
    assert!(total_requests > 0);
    let stored: u64 = sim_stats.values().map(|s| s.puts_stored).sum();
    assert!(stored >= 3, "expected slice-wide replication, got {stored}");
}

#[test]
fn scenario_outcomes_are_reply_complete() {
    // The scenario's semantic expectations, checked on the simulator alone
    // (the parity test above guarantees the concurrent backends match).
    let spec = parity_spec();
    let plan = spec.build_nodes();
    let key = Key::from_user_key("parity-object");
    let target = plan[0].partition().slice_of(key);
    let replicas = plan.iter().filter(|n| n.slice() == Some(target)).count();

    let mut sim = Simulation::new(SimConfig {
        seed: spec.seed,
        ..SimConfig::default()
    });
    sim.spawn_spec(&spec);
    let steps = run_scenario(&mut sim, &spec, Duration::from_secs(20));

    // Step 1: one ack per replica of the target slice.
    assert_eq!(steps[0].len(), replicas);
    assert!(steps[0].iter().all(|r| r.contains("PutAck")));
    // Step 2: one hit per replica, carrying the stored payload.
    assert_eq!(steps[1].len(), replicas);
    assert!(steps[1].iter().all(|r| r.contains("GetHit")));
    // Step 4/5 (after one replica died): one reply fewer.
    assert_eq!(steps[3].len(), replicas - 1);
    assert_eq!(steps[4].len(), replicas - 1);
    // The post-churn read observes the overwritten version.
    assert!(steps[4].iter().all(|r| r.contains("GetHit")));
}

/// The pipelined ticket path, scripted and deterministic (the fuzzer only
/// reaches its `PipelinedBurst` step by chance): a burst across both
/// slices, an overwrite burst through different contacts, then — after a
/// crash — a burst whose first put names the dead node as contact. Every
/// backend must agree on the per-operation outcomes (including the
/// "Unavailable") and on every node's protocol accounting.
#[test]
fn pipelined_tickets_agree_across_environments() {
    let spec = parity_spec();

    fn script<E: PipelinedParity>(
        env: &mut E,
        spec: &ClusterSpec,
        budget: Duration,
    ) -> Vec<Vec<String>> {
        let plan = spec.build_nodes();
        let member = |key: Key, choice: usize| -> NodeId {
            let target = plan[0].partition().slice_of(key);
            let members: Vec<NodeId> = plan
                .iter()
                .filter(|node| node.slice() == Some(target))
                .map(DataFlasksNode::id)
                .collect();
            members[choice % members.len()]
        };
        let keys: Vec<Key> = (0..4)
            .map(|k| Key::from_user_key(&format!("pipe-{k}")))
            .collect();
        let victim = member(keys[0], 0);
        // A contact for `key` that survives the crash below.
        let live_member = |key: Key, choice: usize| -> NodeId {
            let contact = member(key, choice);
            if contact == victim {
                member(key, choice + 1)
            } else {
                contact
            }
        };
        let mut outcomes = Vec::new();
        let mut burst = |env: &mut E, puts: Vec<BurstPut>| {
            let mut rendered = env.pipelined_burst(&puts, budget);
            rendered.sort();
            rendered.extend(normalise(env.drain_effects(budget)));
            outcomes.push(rendered);
        };

        // Burst 1: four pipelined puts spread over both slices, all in
        // flight before the first await.
        burst(
            env,
            keys.iter()
                .enumerate()
                .map(|(k, &key)| {
                    (
                        member(key, k),
                        RequestId::new(PIPELINE_CLIENT, k as u64),
                        key,
                        Version::new(1),
                        Value::from_bytes(format!("v1-{k}").as_bytes()),
                    )
                })
                .collect(),
        );

        // Burst 2: overwrite everything at version 2 via other contacts.
        burst(
            env,
            keys.iter()
                .enumerate()
                .map(|(k, &key)| {
                    (
                        member(key, k + 1),
                        RequestId::new(PIPELINE_CLIENT, 4 + k as u64),
                        key,
                        Version::new(2),
                        Value::from_bytes(format!("v2-{k}").as_bytes()),
                    )
                })
                .collect(),
        );

        // Burst 3: crash the first burst's contact, then put through it
        // anyway — that operation is Unavailable on every backend, the
        // other three proceed through surviving contacts.
        env.fail_node(victim);
        burst(
            env,
            keys.iter()
                .enumerate()
                .map(|(k, &key)| {
                    let contact = if k == 0 { victim } else { live_member(key, k) };
                    (
                        contact,
                        RequestId::new(PIPELINE_CLIENT, 8 + k as u64),
                        key,
                        Version::new(3),
                        Value::from_bytes(format!("v3-{k}").as_bytes()),
                    )
                })
                .collect(),
        );
        outcomes
    }

    let mut sim = Simulation::new(SimConfig {
        seed: spec.seed,
        ..SimConfig::default()
    });
    sim.spawn_spec(&spec);
    let sim_steps = script(&mut sim, &spec, Duration::from_secs(20));
    let sim_stats: HashMap<NodeId, NodeStats> = spec
        .node_ids()
        .map(|id| (id, *sim.node(id).stats()))
        .collect();

    // The scripted semantics, checked on the simulator's ground truth: all
    // four acked on the first two bursts, exactly one unavailable on the
    // third.
    assert_eq!(sim_steps[0].len(), 4);
    assert!(sim_steps[0].iter().all(|s| s.starts_with("Acked")));
    assert!(sim_steps[1].iter().all(|s| s.starts_with("Acked")));
    assert_eq!(
        sim_steps[2]
            .iter()
            .filter(|s| s.as_str() == "Unavailable")
            .count(),
        1,
        "the dead contact's put must be unavailable: {:?}",
        sim_steps[2]
    );
    assert_eq!(
        sim_steps[2]
            .iter()
            .filter(|s| s.starts_with("Acked"))
            .count(),
        3
    );

    let mut async_cluster = async_cluster_under_stress(&spec);
    async_cluster.set_drain_idle_grace(Duration::from_millis(300));
    let async_steps = script(&mut async_cluster, &spec, Duration::from_secs(10));
    let async_stats: HashMap<NodeId, NodeStats> = async_cluster
        .shutdown()
        .into_iter()
        .map(|n| (n.id(), *n.stats()))
        .collect();

    let mut socket_cluster = socket_cluster_under_stress(&spec, SocketTransportKind::Tcp);
    socket_cluster.set_drain_idle_grace(Duration::from_millis(300));
    let socket_steps = script(&mut socket_cluster, &spec, Duration::from_secs(10));
    let socket_stats: HashMap<NodeId, NodeStats> = socket_cluster
        .shutdown()
        .into_iter()
        .map(|n| (n.id(), *n.stats()))
        .collect();

    assert_backend_parity(
        "async runtime (pipelined)",
        &sim_steps,
        &async_steps,
        &sim_stats,
        &async_stats,
    );
    assert_backend_parity(
        "socket runtime (pipelined)",
        &sim_steps,
        &socket_steps,
        &sim_stats,
        &socket_stats,
    );
}

// ---------------------------------------------------------------------------
// Cross-environment differential fuzzing
// ---------------------------------------------------------------------------

/// One randomly generated scenario step. Every step is order-independent
/// under the full-coverage configuration of [`parity_spec`], so thread
/// scheduling in the concurrent runtime cannot change its outcome:
///
/// * puts/gets flood the full view (fanout ≥ cluster size) with ample TTL,
///   so target selection never depends on how much randomness a node has
///   consumed,
/// * slicing-gossip and anti-entropy rounds are injected through
///   `Environment::fire_timer` and drained to quiescence before the next
///   step, so every backend processes the same message sets,
/// * crashes remove a node in every backend identically (its inbox is
///   discarded, later traffic to it is dropped),
/// * restarts rejoin the crashed node with the spec-derived state every
///   backend rebuilds identically (warm membership, empty volatile store),
///   making later anti-entropy rounds repair *real* divergence.
#[derive(Debug, Clone)]
enum Step {
    Put {
        key_tag: u8,
        contact: u8,
    },
    Get {
        key_tag: u8,
        contact: u8,
    },
    SliceGossipRound {
        node: u8,
    },
    AntiEntropyRound {
        node: u8,
    },
    Crash {
        node: u8,
    },
    Restart {
        node: u8,
    },
    /// Four puts with distinct keys submitted back to back and drained as
    /// one step: the concurrent floods overrun the tiny (capacity-2)
    /// mailboxes of the stressed backends, so the async deferred-delivery
    /// path and the socket reactor's park/nudge/re-arm wake path both run
    /// under real saturation. Distinct keys and a disjoint request-id
    /// namespace keep the step order-independent.
    Burst {
        key_tag: u8,
        contact: u8,
    },
    /// Four puts submitted through the pipelined *ticket* API — all four
    /// tickets registered and in flight before the first await — on the
    /// concurrent backends, and through raw `Environment` submission on the
    /// simulator. Outcomes are rendered responder-independently, so the
    /// completion router's reply routing (and its refusal to steal the
    /// Environment drain's replies) is differentially checked against the
    /// simulator's ground truth.
    PipelinedBurst {
        key_tag: u8,
        contact: u8,
    },
    /// A nemesis partition window: split the cluster into even-id and
    /// odd-id halves, put through a slice member, drain, then heal and
    /// drain again. The cut is a pure function of `(from, to)`, so every
    /// backend refuses exactly the same messages: only the replicas on the
    /// contact's side ack, and the per-message `partition_refusals` tally
    /// matches across backends regardless of how each one frames batches.
    PartitionWindow {
        key_tag: u8,
        contact: u8,
    },
    /// A nemesis loss window at `p = 1` on every link: the contact still
    /// stores and acks its own client (client links are outside the blast
    /// radius), but no replication frame leaves any node, and every backend
    /// counts the same `frames_dropped_injected`. Closed with a full
    /// `clear()` before the next step.
    LossWindow {
        key_tag: u8,
        contact: u8,
    },
    /// An asymmetrically blocked directed link (`a → b` refused, `b → a`
    /// untouched) around one put — the fault shape that distinguishes the
    /// blocked-link gate from the symmetric partition cut.
    AsymmetricWindow {
        key_tag: u8,
        link: u8,
    },
}

/// Strategy: steps are decoded from small integer tuples (the vendored
/// proptest stub has no `prop_oneof`), with crashes rare so most scenarios
/// keep several live replicas.
fn arb_step() -> impl Strategy<Value = (u8, u8, u8)> {
    (0u8..16, 0u8..6, 0u8..16)
}

fn decode_step((selector, a, b): (u8, u8, u8)) -> Step {
    match selector {
        0..=3 => Step::Put {
            key_tag: a,
            contact: b,
        },
        4..=6 => Step::Get {
            key_tag: a,
            contact: b,
        },
        7 => Step::SliceGossipRound { node: b },
        8 => Step::AntiEntropyRound { node: b },
        9 => Step::Crash { node: b },
        10 => Step::Restart { node: b },
        11 => Step::Burst {
            key_tag: a,
            contact: b,
        },
        12 => Step::PipelinedBurst {
            key_tag: a,
            contact: b,
        },
        13 => Step::PartitionWindow {
            key_tag: a,
            contact: b,
        },
        14 => Step::LossWindow {
            key_tag: a,
            contact: b,
        },
        _ => Step::AsymmetricWindow {
            key_tag: a,
            link: b,
        },
    }
}

/// A parity spec with randomised capacities and seed (same full-coverage,
/// far-timer configuration as the scripted scenario).
fn random_spec(capacities: &[u64], seed: u64) -> ClusterSpec {
    let mut config = NodeConfig::for_system_size(capacities.len(), 2);
    config.pss.view_size = 16;
    config.pss.intra_view_size = 16;
    config.dissemination.global_fanout = 16;
    config.dissemination.intra_fanout = 16;
    config.dissemination.intra_ttl = 32;
    config.dissemination.global_ttl = 32;
    let far = Duration::from_secs(1 << 26);
    config.pss.shuffle_period = far;
    config.slicing.gossip_period = far;
    config.replication.anti_entropy_period = far;
    ClusterSpec::new(config, capacities.to_vec(), seed)
}

/// Drives the decoded steps through any environment, draining to quiescence
/// after each one, and returns the normalised replies per step.
///
/// Like the scripted scenario, puts and gets go through a contact that is a
/// member of the key's target slice: dissemination stays intra-slice, which
/// is what keeps per-copy TTLs (and therefore forward-vs-expire decisions on
/// nodes outside the slice) independent of message arrival order. The
/// contact member is still chosen by the fuzzer.
fn run_random_scenario<E: PipelinedParity + FaultControl>(
    env: &mut E,
    spec: &ClusterSpec,
    steps: &[Step],
    budget: Duration,
) -> Vec<Vec<String>> {
    let n = spec.len() as u8;
    // The slice layout is a deterministic function of the spec; plan contacts
    // against a private materialisation exactly like the scripted scenario.
    let plan = spec.build_nodes();
    let responsible_contact = |key: Key, choice: u8| -> NodeId {
        let target = plan[0].partition().slice_of(key);
        let members: Vec<NodeId> = plan
            .iter()
            .filter(|node| node.slice() == Some(target))
            .map(DataFlasksNode::id)
            .collect();
        assert!(
            !members.is_empty(),
            "every slice of a warm spec is populated"
        );
        members[usize::from(choice) % members.len()]
    };
    let mut outcomes = Vec::with_capacity(steps.len());
    for (sequence, step) in steps.iter().enumerate() {
        match step {
            Step::Put { key_tag, contact } => {
                let key = Key::from_user_key(&format!("fuzz-{key_tag}"));
                env.submit_client_request(
                    CLIENT,
                    responsible_contact(key, *contact),
                    ClientRequest::Put {
                        id: RequestId::new(CLIENT, sequence as u64),
                        key,
                        version: Version::new(sequence as u64 + 1),
                        value: Value::from_bytes(format!("payload-{sequence}").as_bytes()),
                    },
                );
            }
            Step::Get { key_tag, contact } => {
                let key = Key::from_user_key(&format!("fuzz-{key_tag}"));
                env.submit_client_request(
                    CLIENT,
                    responsible_contact(key, *contact),
                    ClientRequest::Get {
                        id: RequestId::new(CLIENT, sequence as u64),
                        key,
                        version: None,
                    },
                );
            }
            Step::SliceGossipRound { node } => {
                env.fire_timer(NodeId::new(u64::from(node % n)), TimerKind::SliceGossip);
            }
            Step::AntiEntropyRound { node } => {
                env.fire_timer(NodeId::new(u64::from(node % n)), TimerKind::AntiEntropy);
            }
            Step::Crash { node } => {
                env.fail_node(NodeId::new(u64::from(node % n)));
            }
            Step::Restart { node } => {
                env.restart_node(NodeId::new(u64::from(node % n)));
            }
            Step::Burst { key_tag, contact } => {
                // All four puts are in flight before the first drain: with
                // fanout ≥ cluster size every node sees four concurrent
                // floods, overrunning capacity-2 mailboxes. The request ids
                // live in a namespace no other step uses (sequence < 1000).
                for k in 0..4u64 {
                    let key = Key::from_user_key(&format!("fuzz-burst-{key_tag}-{k}"));
                    env.submit_client_request(
                        CLIENT,
                        responsible_contact(key, contact.wrapping_add(k as u8)),
                        ClientRequest::Put {
                            id: RequestId::new(CLIENT, 1000 + sequence as u64 * 4 + k),
                            key,
                            version: Version::new(sequence as u64 + 1),
                            value: Value::from_bytes(format!("burst-{sequence}-{k}").as_bytes()),
                        },
                    );
                }
            }
            Step::PipelinedBurst { key_tag, contact } => {
                // Distinct keys keep the step order-independent; the
                // simulator-side ids live in their own namespace
                // (PIPELINE_CLIENT, sequence ≥ 2000).
                let puts: Vec<BurstPut> = (0..4u64)
                    .map(|k| {
                        let key = Key::from_user_key(&format!("fuzz-pipe-{key_tag}-{k}"));
                        (
                            responsible_contact(key, contact.wrapping_add(k as u8)),
                            RequestId::new(PIPELINE_CLIENT, 2000 + sequence as u64 * 4 + k),
                            key,
                            Version::new(sequence as u64 + 1),
                            Value::from_bytes(format!("pipe-{sequence}-{k}").as_bytes()),
                        )
                    })
                    .collect();
                let mut rendered = env.pipelined_burst(&puts, budget);
                rendered.sort();
                // Awaiting the tickets returns at the *first* ack per put;
                // drain the rest of the epidemic before the next step so the
                // backends stay in lockstep. Anything this drain surfaces
                // (it should surface nothing — late duplicates die slotless
                // inside the gateway) is part of the compared outcome.
                rendered.extend(normalise(env.drain_effects(budget)));
                outcomes.push(rendered);
                continue;
            }
            Step::PartitionWindow { key_tag, contact } => {
                // Even ids versus odd ids: a cut that is a pure function of
                // (from, to), so every backend drops exactly the same
                // messages at its own frame boundary. The put's replies are
                // the acks of the contact-side replicas only; the window is
                // self-contained (heal + drain before the next step).
                let plan = env.nemesis_plan();
                let (evens, odds): (Vec<NodeId>, Vec<NodeId>) =
                    spec.node_ids().partition(|id| id.as_u64() % 2 == 0);
                plan.set_partition(&[evens, odds]);
                let key = Key::from_user_key(&format!("fuzz-part-{key_tag}"));
                env.submit_client_request(
                    CLIENT,
                    responsible_contact(key, *contact),
                    ClientRequest::Put {
                        id: RequestId::new(CLIENT, 3000 + sequence as u64),
                        key,
                        version: Version::new(sequence as u64 + 1),
                        value: Value::from_bytes(format!("part-{sequence}").as_bytes()),
                    },
                );
                let mut rendered = normalise(env.drain_effects(budget));
                plan.heal();
                // Nothing retransmits after the heal (the flood is over);
                // the second drain must be empty everywhere, and is part of
                // the compared outcome.
                rendered.extend(normalise(env.drain_effects(budget)));
                outcomes.push(rendered);
                continue;
            }
            Step::LossWindow { key_tag, contact } => {
                // Total loss on every inter-node link: replayable across
                // backends because p = 1 leaves nothing to chance. The
                // contact still stores and acks (client links are outside
                // the blast radius); every replication frame is counted
                // into frames_dropped_injected, per message.
                let plan = env.nemesis_plan();
                plan.set_loss(None, 1.0);
                let key = Key::from_user_key(&format!("fuzz-loss-{key_tag}"));
                env.submit_client_request(
                    CLIENT,
                    responsible_contact(key, *contact),
                    ClientRequest::Put {
                        id: RequestId::new(CLIENT, 3000 + sequence as u64),
                        key,
                        version: Version::new(sequence as u64 + 1),
                        value: Value::from_bytes(format!("loss-{sequence}").as_bytes()),
                    },
                );
                let mut rendered = normalise(env.drain_effects(budget));
                plan.clear();
                rendered.extend(normalise(env.drain_effects(budget)));
                outcomes.push(rendered);
                continue;
            }
            Step::AsymmetricWindow { key_tag, link } => {
                // One directed link refused, its reverse untouched — the
                // shape that distinguishes the blocked-link gate from the
                // symmetric partition cut.
                let plan = env.nemesis_plan();
                let blocked_from = NodeId::new(u64::from(link % n));
                let blocked_to = NodeId::new(u64::from(link.wrapping_mul(5).wrapping_add(1) % n));
                plan.block_link(blocked_from, blocked_to);
                let key = Key::from_user_key(&format!("fuzz-asym-{key_tag}"));
                env.submit_client_request(
                    CLIENT,
                    responsible_contact(key, *key_tag),
                    ClientRequest::Put {
                        id: RequestId::new(CLIENT, 3000 + sequence as u64),
                        key,
                        version: Version::new(sequence as u64 + 1),
                        value: Value::from_bytes(format!("asym-{sequence}").as_bytes()),
                    },
                );
                let mut rendered = normalise(env.drain_effects(budget));
                plan.heal();
                rendered.extend(normalise(env.drain_effects(budget)));
                outcomes.push(rendered);
                continue;
            }
        }
        outcomes.push(normalise(env.drain_effects(budget)));
    }
    outcomes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Differential fuzzing: identical replies and identical `NodeStats`
    /// across all three environments, for randomized seeded scenarios, with
    /// the sharded store as the default store.
    #[test]
    fn random_scenarios_agree_across_environments(
        capacities in proptest::collection::vec(50u64..10_000, 6..9),
        raw_steps in proptest::collection::vec(arb_step(), 3..8),
        seed in 1u64..u64::MAX,
    ) {
        let spec = random_spec(&capacities, seed);
        let steps: Vec<Step> = raw_steps.iter().copied().map(decode_step).collect();

        // --- Discrete-event simulation -----------------------------------
        let mut sim = Simulation::new(SimConfig {
            seed: spec.seed,
            ..SimConfig::default()
        });
        sim.spawn_spec(&spec);
        let sim_outcomes = run_random_scenario(&mut sim, &spec, &steps, Duration::from_secs(30));
        let sim_stats: HashMap<NodeId, NodeStats> = spec
            .node_ids()
            .map(|id| (id, *sim.node(id).stats()))
            .collect();

        // --- Event-driven runtime (framed transport, 4 workers, bounded
        // mailboxes: cross-worker rounds and saturation must not break
        // parity) ----------------------------------------------------------
        let mut async_cluster = async_cluster_under_stress(&spec);
        // In-process hops take microseconds; a short idle grace keeps the
        // many drains of a fuzzing run fast without losing replies.
        async_cluster.set_drain_idle_grace(Duration::from_millis(300));
        let async_outcomes =
            run_random_scenario(&mut async_cluster, &spec, &steps, Duration::from_secs(10));
        let async_stats: HashMap<NodeId, NodeStats> = async_cluster
            .shutdown()
            .into_iter()
            .map(|node| (node.id(), *node.stats()))
            .collect();

        // --- Socket runtime (every hop over a real TCP connection; crashes
        // and restarts tear connections down and re-dial them) -------------
        let mut socket_cluster = socket_cluster_under_stress(&spec, SocketTransportKind::Tcp);
        socket_cluster.set_drain_idle_grace(Duration::from_millis(300));
        let socket_outcomes =
            run_random_scenario(&mut socket_cluster, &spec, &steps, Duration::from_secs(10));
        prop_assert_eq!(socket_cluster.wire_reject_count(), 0);
        let socket_stats: HashMap<NodeId, NodeStats> = socket_cluster
            .shutdown()
            .into_iter()
            .map(|node| (node.id(), *node.stats()))
            .collect();

        // --- Identical client-visible outcomes ---------------------------
        prop_assert_eq!(sim_outcomes.len(), async_outcomes.len());
        prop_assert_eq!(sim_outcomes.len(), socket_outcomes.len());
        for (step, sim_replies) in sim_outcomes.iter().enumerate() {
            prop_assert_eq!(
                sim_replies,
                &async_outcomes[step],
                "step {} ({:?}): async runtime disagrees on replies",
                step,
                steps[step]
            );
            prop_assert_eq!(
                sim_replies,
                &socket_outcomes[step],
                "step {} ({:?}): socket runtime disagrees on replies",
                step,
                steps[step]
            );
        }

        // --- Identical per-node protocol accounting ----------------------
        prop_assert_eq!(sim_stats.len(), async_stats.len());
        prop_assert_eq!(sim_stats.len(), socket_stats.len());
        for (id, sim_node_stats) in &sim_stats {
            let async_node_stats = async_stats.get(id).expect("node survived shutdown");
            prop_assert_eq!(
                sim_node_stats,
                async_node_stats,
                "node {}: async runtime disagrees on NodeStats",
                id
            );
            // The socket backend's NodeStats must also match exactly: the
            // transport-only counter it adds (wire_rejects) stays zero on a
            // healthy loopback cluster, so no masking is needed.
            let socket_node_stats = socket_stats.get(id).expect("node survived shutdown");
            prop_assert_eq!(
                sim_node_stats,
                socket_node_stats,
                "node {}: socket runtime disagrees on NodeStats",
                id
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Crash→restart divergence repaired by incremental anti-entropy
// ---------------------------------------------------------------------------

/// The crash→restart scenario the fuzzer can only hit by chance, scripted:
/// a replica loses its volatile store on restart and must converge back to
/// its peers through the *incremental* anti-entropy exchanges (one key-range
/// chunk per round), on every backend, with identical accounting.
#[test]
fn restarted_replica_converges_via_incremental_anti_entropy() {
    let spec = random_spec(&[100, 900, 300, 4_000, 2_000, 700], 0xD1F3);

    /// Per-node sorted stored key sets: the convergence observable.
    type KeySets = HashMap<NodeId, Vec<Key>>;

    /// Drives the scripted divergence scenario, returning per-step replies.
    fn run<E: Environment>(env: &mut E, spec: &ClusterSpec, budget: Duration) -> Vec<Vec<String>> {
        let plan = spec.build_nodes();
        let probe = Key::from_user_key("diverge-0");
        let target = plan[0].partition().slice_of(probe);
        let victim = plan
            .iter()
            .find(|n| n.slice() == Some(target))
            .map(DataFlasksNode::id)
            .expect("warm specs populate every slice");
        let mut outcomes = Vec::new();
        // Seed several keys (both slices get traffic; the victim's slice gets
        // keys spread over multiple store-shard chunks).
        for sequence in 0..8u64 {
            let key = Key::from_user_key(&format!("diverge-{sequence}"));
            let slice = plan[0].partition().slice_of(key);
            let contact = plan
                .iter()
                .find(|n| n.slice() == Some(slice))
                .map(DataFlasksNode::id)
                .expect("warm specs populate every slice");
            env.submit_client_request(
                CLIENT,
                contact,
                ClientRequest::Put {
                    id: RequestId::new(CLIENT, sequence),
                    key,
                    version: Version::new(1),
                    value: Value::from_bytes(format!("divergent-{sequence}").as_bytes()),
                },
            );
            outcomes.push(normalise(env.drain_effects(budget)));
        }
        // Crash → restart: the victim rejoins warm but with an empty store.
        env.restart_node(victim);
        outcomes.push(normalise(env.drain_effects(budget)));
        // Incremental anti-entropy from the stale side: each round covers the
        // next key-range chunk of the victim's slice, so cycling through all
        // chunks (store_shards of them; twice for slack) repairs everything
        // its peers still hold.
        let rounds = 2 * spec.node_config.effective_store_shards();
        for _ in 0..rounds {
            env.fire_timer(victim, TimerKind::AntiEntropy);
            outcomes.push(normalise(env.drain_effects(budget)));
        }
        outcomes
    }

    /// Sorted key set and stats per node, from owned final node states.
    fn final_state(
        nodes: Vec<DataFlasksNode<DefaultStore>>,
    ) -> (KeySets, HashMap<NodeId, NodeStats>) {
        nodes
            .into_iter()
            .map(|node| {
                let mut keys = DataStore::keys(node.store());
                keys.sort();
                ((node.id(), keys), (node.id(), *node.stats()))
            })
            .unzip()
    }

    // --- Discrete-event simulation ----------------------------------------
    let mut sim = Simulation::new(SimConfig {
        seed: spec.seed,
        ..SimConfig::default()
    });
    sim.spawn_spec(&spec);
    let sim_outcomes = run(&mut sim, &spec, Duration::from_secs(30));
    let mut sim_keys = KeySets::new();
    let mut sim_stats: HashMap<NodeId, NodeStats> = HashMap::new();
    for id in spec.node_ids() {
        let node = sim.node(id);
        let mut keys = DataStore::keys(node.store());
        keys.sort();
        sim_keys.insert(id, keys);
        sim_stats.insert(id, *node.stats());
    }

    // --- Concurrent runtimes ----------------------------------------------
    let mut async_cluster = async_cluster_under_stress(&spec);
    async_cluster.set_drain_idle_grace(Duration::from_millis(300));
    let async_outcomes = run(&mut async_cluster, &spec, Duration::from_secs(10));
    let (async_keys, async_stats) = final_state(async_cluster.shutdown());

    let mut socket_cluster = socket_cluster_under_stress(&spec, SocketTransportKind::Tcp);
    socket_cluster.set_drain_idle_grace(Duration::from_millis(300));
    let socket_outcomes = run(&mut socket_cluster, &spec, Duration::from_secs(10));
    let (socket_keys, socket_stats) = final_state(socket_cluster.shutdown());

    // --- The stale replica actually converged ------------------------------
    let plan = spec.build_nodes();
    let probe = Key::from_user_key("diverge-0");
    let target = plan[0].partition().slice_of(probe);
    let members: Vec<NodeId> = plan
        .iter()
        .filter(|n| n.slice() == Some(target))
        .map(DataFlasksNode::id)
        .collect();
    let victim = members[0];
    let reference = members
        .iter()
        .find(|&&id| id != victim)
        .expect("a surviving replica exists");
    assert!(
        !sim_keys[reference].is_empty(),
        "the surviving replica holds data to repair from"
    );
    assert_eq!(
        sim_keys[&victim], sim_keys[reference],
        "anti-entropy must fully repair the restarted replica"
    );

    // --- And every backend agrees on everything ----------------------------
    assert_eq!(sim_outcomes, async_outcomes, "async replies diverge");
    assert_eq!(sim_outcomes, socket_outcomes, "socket replies diverge");
    assert_eq!(sim_keys, async_keys, "async stores diverge");
    assert_eq!(sim_keys, socket_keys, "socket stores diverge");
    for (id, stats) in &sim_stats {
        assert_eq!(stats, &async_stats[id], "async stats diverge for {id}");
        assert_eq!(stats, &socket_stats[id], "socket stats diverge for {id}");
        if *id == victim {
            assert!(
                stats.objects_repaired > 0,
                "the victim must have been repaired by anti-entropy"
            );
        }
    }
}
