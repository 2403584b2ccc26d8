//! The closed-loop client: one thread, one gateway, a fixed number of
//! tickets in flight (a completion frees a slot — callers that wait for
//! replies, YCSB's model), with every reply checked as it arrives.

use std::collections::HashMap;
use std::time::{Duration as StdDuration, Instant};

use crate::adapter::cluster::Cluster;
use crate::adapter::{
    Completion, Duration, Operation, OperationKind, Outcome, Ticket, WorkloadGenerator,
};
use crate::trace::{SpanId, Tracer};

/// Tickets kept in flight by the measured loop.
pub const INFLIGHT: usize = 64;
/// Tickets kept in flight while preloading: shallow, so the preload barely
/// registers on the gateway's lifetime high-water mark.
const PRELOAD_INFLIGHT: usize = 16;
/// Deadline of every attempt. A get that only found replicas without the
/// object resolves (as a miss) at this deadline, not before.
const OP_TIMEOUT: Duration = Duration::from_secs(2);
/// Attempts an operation gets before it counts as failed. The client does
/// what a caller of this store does with "not found" for a key it wrote:
/// it asks again, through another random contact. A node that has just
/// changed slice answers "not found" for its new slice's keys until
/// anti-entropy catches it up, and a get that picks it as contact while its
/// views are still empty hears nothing else — a handful per 10 000 gets;
/// the second attempt lands elsewhere. Retried operations are counted
/// (`bench.retried_frac`) and gated; an operation fails when every attempt
/// did. A put is retried at the same version, which replicas absorb.
const MAX_ATTEMPTS: u32 = 3;
/// How long the client sleeps between two polls. Polling in a spin would
/// take a core from the worker and the reactor it shares two with; polling
/// again at once whenever a poll found something makes the client's own CPU
/// swing 2× between runs (15–31 µs/op on `async_read_heavy`). A fixed
/// cadence costs the same every run; 200 µs is ~1 % of the latencies measured.
const POLL_SLEEP: StdDuration = StdDuration::from_micros(200);
/// Forced gossip rounds of the accelerated warm-up.
const WARM_ROUNDS: usize = 15;
/// Gap between the starts of two forced gossip rounds of the warm-up.
const WARM_ROUND_GAP: StdDuration = StdDuration::from_millis(100);
/// Length of the last forced round. Each node re-arms its timers one period
/// after its forced firing, so the spread of the last round is the spread of
/// every later regular round: wide enough that gossip does not arrive as one
/// burst per period.
const WARM_LAST_ROUND: StdDuration = StdDuration::from_millis(1_000);

/// The record number behind a generated operation (`user17` → 17).
fn record_of(op: &Operation) -> usize {
    op.user_key
        .strip_prefix("user")
        .and_then(|n| n.parse().ok())
        .expect("generated user keys are user<record>")
}

/// The byte the generator fills a record's values with.
fn fill_of(record: usize) -> u8 {
    (record % 251) as u8
}

/// Warms a freshly spawned cluster to the state it would reach after ~30 s
/// of idle gossip, in a fraction of the time.
///
/// A cold cluster answers several times faster than a warm one: until the
/// slice views have filled, a request reaches only part of its slice. That
/// takes about fifteen shuffle rounds — 30 s at the configured 2 s period.
/// Rather than wait, this fires every node's shuffle and slicing timers
/// through the runtime's public `fire_timer`, [`WARM_ROUNDS`] rounds, one per
/// [`WARM_ROUND_GAP`], each round spread evenly over its gap.
pub fn warm_up(cluster: &mut Cluster) {
    let nodes = cluster.shape().nodes;
    for round in 0..WARM_ROUNDS {
        let span = if round + 1 == WARM_ROUNDS {
            WARM_LAST_ROUND
        } else {
            WARM_ROUND_GAP
        };
        let start = Instant::now();
        for index in 0..nodes {
            let due = start + span * index as u32 / nodes as u32;
            let wait = due.saturating_duration_since(Instant::now());
            if wait > StdDuration::from_micros(100) {
                std::thread::sleep(wait);
            }
            cluster.fire_gossip(index);
        }
        std::thread::sleep((start + span).saturating_duration_since(Instant::now()));
    }
}

/// What the client knows about every record: the checks' reference state.
#[derive(Debug, Clone)]
pub struct Checker {
    value_size: usize,
    /// Highest version this client saw acknowledged, per record.
    acked: Vec<u64>,
    /// Replies that contradicted what was written: a hit with the wrong key,
    /// length or fill byte, or an acknowledgement of something else than the
    /// put it answers.
    pub wrong_replies: u64,
    /// Attempts that ended in a miss or a timeout (see [`MAX_ATTEMPTS`]).
    pub unanswered: u64,
    /// Hits older than the version acknowledged before the get was sent.
    /// Legitimate under first-ack puts (other replicas lag); a diagnostic.
    pub stale_reads: u64,
}

impl Checker {
    /// A checker for `records` records of `value_size` bytes, none written.
    pub fn new(records: usize, value_size: usize) -> Self {
        Self {
            value_size,
            acked: vec![0; records],
            wrong_replies: 0,
            unanswered: 0,
            stale_reads: 0,
        }
    }

    /// Judges the outcome of one attempt at `op`, started when `floor` was
    /// the version acknowledged for its record.
    fn judge(&mut self, op: &Operation, record: usize, floor: u64, outcome: Outcome) -> Verdict {
        match (op.is_write(), outcome) {
            (true, Outcome::Acked { key, version }) => {
                let expected = op.version.map_or(0, |v| v.as_u64());
                if key != op.key || version != expected {
                    self.wrong_replies += 1;
                    return Verdict::Wrong;
                }
                self.acked[record] = self.acked[record].max(version);
                Verdict::Answered
            }
            (
                false,
                Outcome::Hit {
                    key,
                    version,
                    len,
                    fill,
                },
            ) => {
                if key != op.key || len != self.value_size || fill != Some(fill_of(record)) {
                    self.wrong_replies += 1;
                    return Verdict::Wrong;
                }
                if version < floor {
                    self.stale_reads += 1;
                }
                Verdict::Answered
            }
            (_, Outcome::Miss | Outcome::TimedOut) => {
                self.unanswered += 1;
                Verdict::Unanswered
            }
            // A get acknowledged or a put "hit": the gateway routed a reply
            // of the wrong kind.
            (true, Outcome::Hit { .. }) | (false, Outcome::Acked { .. }) => {
                self.wrong_replies += 1;
                Verdict::Wrong
            }
        }
    }
}

/// How one attempt at an operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Answered, and with what was written.
    Answered,
    /// A miss or a timeout: worth another attempt.
    Unanswered,
    /// A reply that contradicts what was written: never retried.
    Wrong,
}

fn submit(cluster: &Cluster, op: &Operation) -> Result<Ticket, String> {
    match op.kind {
        OperationKind::Read => cluster.submit_get(op.key, OP_TIMEOUT),
        OperationKind::Insert | OperationKind::Update => cluster.submit_put(
            op.key,
            op.version.expect("generated writes carry a version"),
            op.value.clone(),
            OP_TIMEOUT,
        ),
    }
}

/// Writes every record at version 1 through the pipelined path and checks
/// every acknowledgement. Returns the number of failed preload puts.
pub fn preload(cluster: &Cluster, generator: &mut WorkloadGenerator, checker: &mut Checker) -> u64 {
    let mut pending: HashMap<Ticket, (Operation, usize, u32)> = HashMap::new();
    let mut scratch = Vec::new();
    let mut done = Vec::new();
    let mut failed = 0;
    let mut ops = generator.load_phase();
    let mut exhausted = false;
    while !exhausted || !pending.is_empty() {
        while !exhausted && pending.len() < PRELOAD_INFLIGHT {
            match ops.next() {
                Some(op) => match submit(cluster, &op) {
                    Ok(ticket) => {
                        let record = record_of(&op);
                        pending.insert(ticket, (op, record, 1));
                    }
                    Err(_) => failed += 1,
                },
                None => exhausted = true,
            }
        }
        cluster.poll(&mut scratch, &mut done);
        if done.is_empty() {
            std::thread::sleep(POLL_SLEEP);
        }
        for (ticket, outcome) in done.drain(..) {
            let Some((op, record, attempt)) = pending.remove(&ticket) else {
                continue;
            };
            match checker.judge(&op, record, 0, outcome) {
                Verdict::Answered => {}
                Verdict::Unanswered if attempt < MAX_ATTEMPTS => match submit(cluster, &op) {
                    Ok(ticket) => {
                        pending.insert(ticket, (op, record, attempt + 1));
                    }
                    Err(_) => failed += 1,
                },
                Verdict::Unanswered | Verdict::Wrong => failed += 1,
            }
        }
    }
    failed
}

/// What the one-ticket-at-a-time phase saw.
#[derive(Debug, Clone, Default)]
pub struct UnloadedStats {
    /// Get round trips, µs.
    pub get_us: Vec<f64>,
    /// Put round trips, µs.
    pub put_us: Vec<f64>,
    /// Operations that needed more than one attempt.
    pub retried: u64,
    /// Operations that did not succeed in [`MAX_ATTEMPTS`] attempts.
    pub failed: u64,
}

/// One ticket at a time for `length`: the un-queued path latency. Every
/// operation is an `op` span (child of `parent`) with its `submit_call`.
pub fn run_unloaded(
    cluster: &Cluster,
    generator: &mut WorkloadGenerator,
    checker: &mut Checker,
    length: StdDuration,
    tracer: &mut Tracer,
    parent: SpanId,
) -> UnloadedStats {
    let mut stats = UnloadedStats::default();
    let end = Instant::now() + length;
    let mut sequence = 0u64;
    for op in generator.transaction_phase() {
        if Instant::now() >= end {
            break;
        }
        sequence += 1;
        let record = record_of(&op);
        let floor = checker.acked[record];
        let span = tracer.begin("op", parent, sequence);
        // The round trip of the attempt that succeeded.
        let mut round_trip = None;
        for attempt in 1..=MAX_ATTEMPTS {
            let start = Instant::now();
            let submitted = submit(cluster, &op);
            tracer.record("submit_call", span, sequence, start, Instant::now());
            let verdict = submitted.map_or(Verdict::Wrong, |ticket| {
                let outcome = cluster.await_ticket(ticket, OP_TIMEOUT);
                checker.judge(&op, record, floor, outcome)
            });
            match verdict {
                Verdict::Answered => round_trip = Some(start.elapsed()),
                Verdict::Unanswered => {
                    if attempt == 1 {
                        stats.retried += 1;
                    }
                    continue;
                }
                Verdict::Wrong => {}
            }
            break;
        }
        tracer.end(span);
        match (round_trip, op.is_write()) {
            (None, _) => stats.failed += 1,
            (Some(took), true) => stats.put_us.push(took.as_secs_f64() * 1e6),
            (Some(took), false) => stats.get_us.push(took.as_secs_f64() * 1e6),
        }
    }
    stats
}

/// What one measured window saw.
#[derive(Debug, Clone, Default)]
pub struct WindowStats {
    /// Length of the window, seconds.
    pub window_s: f64,
    /// Operations started, lead-in and window.
    pub attempted: u64,
    /// Operations that needed more than one attempt.
    pub retried: u64,
    /// Operations that did not succeed: a failed submit, a wrong reply, or
    /// a miss or timeout on each of [`MAX_ATTEMPTS`] attempts.
    pub failed: u64,
    /// Gets that succeeded at any time (lead-in, window or after it).
    pub all_gets: u64,
    /// Puts that succeeded at any time.
    pub all_puts: u64,
    /// Operations that succeeded inside the window.
    pub completed: u64,
    /// Successes per whole second of the window (a trailing fraction of a
    /// second is measured but has no bucket).
    pub per_second: Vec<f64>,
    /// Latency (first submit → success) of every get that completed inside
    /// the window, µs.
    pub get_us: Vec<f64>,
    /// The same for puts.
    pub put_us: Vec<f64>,
}

struct InFlight {
    op: Operation,
    record: usize,
    /// Version acknowledged for the record when the operation started.
    floor: u64,
    started: Instant,
    span: SpanId,
    sequence: u64,
    attempt: u32,
}

/// How long the closed loop runs before its window opens (loaded, checked,
/// not measured), and how long the window stays open.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// The lead-in.
    pub lead_in: StdDuration,
    /// The measured window.
    pub window: StdDuration,
}

/// Runs the closed loop: [`INFLIGHT`] operations in flight for the lead-in
/// (checked, not measured), then for the window (measured), then the
/// stragglers are collected (and checked) without new operations. `on_edge`
/// is called the instant the window opens and the instant it closes, so the
/// caller can take its CPU snapshots there.
pub fn run_window(
    cluster: &Cluster,
    generator: &mut WorkloadGenerator,
    checker: &mut Checker,
    Phases { lead_in, window }: Phases,
    tracer: &mut Tracer,
    parent: SpanId,
    mut on_edge: impl FnMut(bool),
) -> WindowStats {
    let mut stats = WindowStats {
        window_s: window.as_secs_f64(),
        per_second: vec![0.0; window.as_secs() as usize],
        ..WindowStats::default()
    };
    let mut ops = generator.transaction_phase();
    let mut inflight: HashMap<Ticket, InFlight> = HashMap::with_capacity(INFLIGHT * 2);
    let mut scratch: Vec<Completion> = Vec::new();
    let mut done: Vec<(Ticket, Outcome)> = Vec::new();
    let mut sequence = 0u64;

    let opens = Instant::now() + lead_in;
    let closes = opens + window;
    let (mut opened, mut closed) = (false, false);
    loop {
        let now = Instant::now();
        if !opened && now >= opens {
            opened = true;
            on_edge(true);
        }
        if !closed && now >= closes {
            closed = true;
            on_edge(false);
        }
        if !closed {
            while inflight.len() < INFLIGHT {
                let op = ops.next().expect("the transaction phase is unbounded");
                sequence += 1;
                stats.attempted += 1;
                let record = record_of(&op);
                let started = Instant::now();
                let span = tracer.begin("op", parent, sequence);
                let submitted = submit(cluster, &op);
                tracer.record("submit_call", span, sequence, started, Instant::now());
                match submitted {
                    Ok(ticket) => {
                        inflight.insert(
                            ticket,
                            InFlight {
                                floor: checker.acked[record],
                                op,
                                record,
                                started,
                                span,
                                sequence,
                                attempt: 1,
                            },
                        );
                    }
                    Err(_) => {
                        tracer.end(span);
                        stats.failed += 1;
                    }
                }
            }
        } else if inflight.is_empty() {
            break;
        }

        let poll_started = Instant::now();
        cluster.poll(&mut scratch, &mut done);
        let now = Instant::now();
        tracer.record("poll_call", parent, 0, poll_started, now);
        for (ticket, outcome) in done.drain(..) {
            let Some(mut flight) = inflight.remove(&ticket) else {
                continue;
            };
            match checker.judge(&flight.op, flight.record, flight.floor, outcome) {
                Verdict::Answered => tracer.end(flight.span),
                // Asked again even after the window closed: the operation
                // was started, so it is seen through.
                Verdict::Unanswered if flight.attempt < MAX_ATTEMPTS => {
                    if flight.attempt == 1 {
                        stats.retried += 1;
                    }
                    flight.attempt += 1;
                    let again = Instant::now();
                    let submitted = submit(cluster, &flight.op);
                    let (span, sequence) = (flight.span, flight.sequence);
                    tracer.record("submit_call", span, sequence, again, Instant::now());
                    match submitted {
                        Ok(ticket) => {
                            inflight.insert(ticket, flight);
                        }
                        Err(_) => {
                            tracer.end(span);
                            stats.failed += 1;
                        }
                    }
                    continue;
                }
                Verdict::Unanswered | Verdict::Wrong => {
                    tracer.end(flight.span);
                    stats.failed += 1;
                    continue;
                }
            }
            if flight.op.is_write() {
                stats.all_puts += 1;
            } else {
                stats.all_gets += 1;
            }
            if now < opens || now >= closes {
                continue;
            }
            let us = now.duration_since(flight.started).as_secs_f64() * 1e6;
            stats.completed += 1;
            if flight.op.is_write() {
                stats.put_us.push(us);
            } else {
                stats.get_us.push(us);
            }
            let second = now.duration_since(opens).as_secs() as usize;
            if let Some(bucket) = stats.per_second.get_mut(second) {
                *bucket += 1.0;
            }
        }
        std::thread::sleep(POLL_SLEEP);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::cluster::{Backend, ClusterShape};
    use crate::adapter::{Key, Value, Version, WorkloadSpec};

    fn key_of(record: usize) -> Key {
        Key::from_user_key(&WorkloadGenerator::user_key(record))
    }

    fn op(kind: OperationKind, record: usize, version: Option<u64>) -> Operation {
        let user_key = WorkloadGenerator::user_key(record);
        Operation {
            kind,
            key: Key::from_user_key(&user_key),
            user_key,
            version: version.map(Version::new),
            value: Value::filled(8, fill_of(record)),
        }
    }

    #[test]
    fn checker_accepts_what_was_written_and_nothing_else() {
        let mut checker = Checker::new(300, 8);
        let put = op(OperationKind::Update, 260, Some(3));
        let ack = |key, version| Outcome::Acked { key, version };
        assert_eq!(
            checker.judge(&put, 260, 0, ack(put.key, 3)),
            Verdict::Answered
        );
        assert_eq!(checker.acked[260], 3);
        assert_eq!(checker.judge(&put, 260, 0, ack(put.key, 4)), Verdict::Wrong);
        assert_eq!(
            checker.judge(&put, 260, 0, ack(key_of(1), 3)),
            Verdict::Wrong
        );
        assert_eq!(
            checker.judge(&put, 260, 0, Outcome::TimedOut),
            Verdict::Unanswered
        );

        let get = op(OperationKind::Read, 260, None);
        let hit = |version, len, fill| Outcome::Hit {
            key: get.key,
            version,
            len,
            fill,
        };
        // Record 260 is filled with 260 % 251 = 9.
        assert_eq!(
            checker.judge(&get, 260, 3, hit(3, 8, Some(9))),
            Verdict::Answered
        );
        assert_eq!(checker.stale_reads, 0);
        assert_eq!(
            checker.judge(&get, 260, 3, hit(2, 8, Some(9))),
            Verdict::Answered
        );
        assert_eq!(
            checker.stale_reads, 1,
            "older than acknowledged: stale, not wrong"
        );
        for wrong in [hit(3, 7, Some(9)), hit(3, 8, Some(8)), hit(3, 8, None)] {
            assert_eq!(checker.judge(&get, 260, 0, wrong), Verdict::Wrong);
        }
        assert_eq!(
            checker.judge(&get, 260, 0, Outcome::Miss),
            Verdict::Unanswered
        );
        assert_eq!(checker.judge(&get, 260, 0, ack(get.key, 3)), Verdict::Wrong);
        assert_eq!(checker.wrong_replies, 6);
        assert_eq!(checker.unanswered, 2);
    }

    /// FNV-1a over the fields of an operation sequence.
    fn sequence_hash(seed: u64, count: usize) -> u64 {
        let mut generator = WorkloadGenerator::new(WorkloadSpec::workload_b(200, usize::MAX), seed);
        let _ = generator.load_phase().count();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for op in generator.transaction_phase().take(count) {
            eat(op.is_write() as u64);
            eat(op.key.as_u64());
            eat(op.version.map_or(0, |v| v.as_u64()));
            eat(op.value.len() as u64);
        }
        hash
    }

    #[test]
    fn same_seed_gives_the_same_operation_sequence() {
        assert_eq!(sequence_hash(42, 5_000), sequence_hash(42, 5_000));
        assert_ne!(sequence_hash(42, 5_000), sequence_hash(43, 5_000));
    }

    /// End-to-end smoke of the closed loop: a 24-node in-process cluster,
    /// warmed, preloaded, one second unloaded-free window.
    #[test]
    fn closed_loop_smoke_on_a_small_async_cluster() {
        let shape = ClusterShape {
            nodes: 24,
            slices: 2,
        };
        let mut cluster = Cluster::start(Backend::Async, shape);
        warm_up(&mut cluster);
        let spec = WorkloadSpec::workload_b(50, usize::MAX);
        let mut generator = WorkloadGenerator::new(spec, 7);
        let mut checker = Checker::new(50, 128);
        assert_eq!(preload(&cluster, &mut generator, &mut checker), 0);
        assert!(checker.acked.iter().all(|&v| v == 1));

        let mut tracer = Tracer::new(true);
        let root = tracer.begin("window", crate::trace::NO_SPAN, 0);
        let mut edges = Vec::new();
        let stats = run_window(
            &cluster,
            &mut generator,
            &mut checker,
            Phases {
                lead_in: StdDuration::from_millis(500),
                window: StdDuration::from_secs(1),
            },
            &mut tracer,
            root,
            |opening| edges.push(opening),
        );
        tracer.end(root);
        let totals = cluster.shutdown();

        assert_eq!(edges, vec![true, false]);
        assert!(stats.completed > 100, "only {} ops in 1 s", stats.completed);
        // A get may miss at a node that has just changed slice, and is then
        // asked again; no operation may fail.
        assert_eq!(stats.failed, 0);
        assert!(stats.retried <= checker.unanswered);
        assert!(
            stats.retried * 100 <= stats.attempted,
            "{} retried",
            stats.retried
        );
        assert_eq!(checker.wrong_replies, 0);
        assert_eq!(
            stats.completed as usize,
            stats.get_us.len() + stats.put_us.len()
        );
        assert_eq!(stats.per_second.iter().sum::<f64>(), stats.completed as f64);
        assert!(stats.attempted >= stats.completed);
        assert_eq!(
            stats.all_gets + stats.all_puts,
            stats.attempted - stats.failed
        );
        assert_eq!(totals.nodes, 24);
        assert!(totals.stats.gets_hit >= stats.all_gets);
        // Every operation left an `op` span with a `submit_call` inside.
        let summary = tracer.summarise();
        let count = |name: &str| {
            summary
                .iter()
                .find(|s| s.name == name)
                .map_or(0, |s| s.count)
        };
        assert_eq!(count("op"), stats.attempted);
        // … and one more for every further attempt.
        let further = count("submit_call") - stats.attempted;
        assert!(
            (stats.retried..=stats.retried * u64::from(MAX_ATTEMPTS - 1)).contains(&further),
            "{further} further attempts for {} retried operations",
            stats.retried
        );
        assert!(count("poll_call") > 0);
    }
}
