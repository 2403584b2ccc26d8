//! Host scheduling for the worker-pool runtime.
//!
//! A concurrent backend faces three questions: where do a host's pending
//! inputs wait (an [`Inbox`]), how much of that backlog one dispatch round
//! may absorb before flushing ([`SchedulerConfig::run_budget`]), and which
//! host runs next when many are ready (the [`Scheduler`]'s fair readiness
//! queue). This module answers them in the sans-io core. The worker-pool
//! runtime (`dataflasks-net-env`, over either of its transports) multiplexes
//! thousands of hosts over a small worker pool: routing an input to a host
//! pushes onto its [`Inbox`] and marks the host ready in the shared
//! [`Scheduler`]; workers pop ready hosts, absorb up to the run budget,
//! flush, and re-mark the host if backlog remains.
//!
//! # One ready queue
//!
//! Ready hosts wait in one FIFO queue behind one lock: any worker takes the
//! oldest ready host, and a worker with nothing to do parks on the queue's
//! condvar until a host is enqueued. The hot path stays off that lock where
//! it can: a host is in the queue at most once (the at-most-once scheduling
//! discipline below), so [`Scheduler::mark_ready`] on a host that is already
//! queued or running is a per-slot atomic and nothing else, and an enqueue
//! only notifies the condvar when a worker is parked on it.
//!
//! The at-most-once scheduling discipline (a host is never in the ready
//! queue twice, and [`Scheduler::finish`] re-queues it only if new inputs
//! arrived while it ran) is what keeps one slow host from starving the rest
//! while still guaranteeing no lost wakeups. It is enforced with a per-slot
//! `scheduled` flag and a `repoll` flag that closes the classic race of an
//! input arriving between a worker's final backlog check and its `finish`.
//!
//! # Bounded mailboxes
//!
//! An [`Inbox`] can carry a **high-water mark** ([`Inbox::bounded`]):
//! [`Inbox::try_push`] refuses inputs past the mark with
//! [`PushOutcome::Saturated`], handing the item back so a cooperating sender
//! can defer and retry once the receiver drains — backpressure without loss.
//! A closed inbox hands refused items back too ([`PushOutcome::Closed`],
//! `Err` from [`Inbox::push`]), so whatever an input owns is released by
//! its sender. [`Inbox::push`] deliberately ignores the mark (driver injections, timer
//! firings and shutdown signals must never be refused); the mark is a
//! contract between the dispatch loops, not a hard queue limit.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration as StdDuration;

/// Default number of already-queued inputs one dispatch round absorbs before
/// flushing, bounding effect-buffer growth under load.
pub const DEFAULT_RUN_BUDGET: usize = 128;

/// The scheduler's knob: how long a dispatch round may run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerConfig {
    /// Upper bound on how many pending inputs one dispatch round feeds into
    /// a host before flushing its effects. Larger budgets amortise flushing
    /// (same-destination sends of the whole round group into one batch)
    /// at the cost of latency and effect-buffer growth. `0` means the
    /// default ([`DEFAULT_RUN_BUDGET`]).
    pub run_budget: usize,
}

impl SchedulerConfig {
    /// The run budget, clamped to at least one input per round. A zero
    /// budget means "use the default".
    #[must_use]
    pub fn effective_run_budget(&self) -> usize {
        if self.run_budget == 0 {
            DEFAULT_RUN_BUDGET
        } else {
            self.run_budget
        }
    }
}

/// The outcome of a bounded [`Inbox::try_push`].
#[derive(Debug, PartialEq, Eq)]
pub enum PushOutcome<T> {
    /// The input was enqueued; a receiver will see it.
    Delivered,
    /// The inbox is at its high-water mark. The input was **not** enqueued
    /// and is handed back so the sender can defer and retry — backpressure
    /// signals saturation, it never drops.
    Saturated(T),
    /// The inbox is closed (a crashed node). The input was not enqueued and
    /// is handed back, so the sender can release what it owns; delivery to
    /// a dead node is still a drop, like the simulator discarding
    /// deliveries to dead nodes.
    Closed(T),
}

/// A host's mailbox: an MPSC queue with close-on-failure semantics and an
/// optional high-water mark for backpressure. Receivers never block: a
/// worker drains it when the [`Scheduler`] hands it the host.
#[derive(Debug, Default)]
pub struct Inbox<T> {
    queue: Mutex<InboxState<T>>,
    /// Depth past which [`Self::try_push`] reports saturation; `0` means
    /// unbounded.
    high_water: usize,
}

#[derive(Debug)]
struct InboxState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> Default for InboxState<T> {
    fn default() -> Self {
        Self {
            items: VecDeque::new(),
            closed: false,
        }
    }
}

impl<T> Inbox<T> {
    /// Creates an empty, open, unbounded inbox.
    #[must_use]
    pub fn new() -> Self {
        Self {
            queue: Mutex::new(InboxState::default()),
            high_water: 0,
        }
    }

    /// Creates an empty, open inbox whose [`Self::try_push`] saturates once
    /// `high_water` inputs are queued. `0` means unbounded ([`Self::new`]).
    #[must_use]
    pub fn bounded(high_water: usize) -> Self {
        Self {
            queue: Mutex::new(InboxState::default()),
            high_water,
        }
    }

    /// Enqueues one input regardless of the high-water mark. A closed inbox
    /// (a crashed node) hands the input back as `Err` — sending to a crashed
    /// node is a drop, exactly like the simulator discarding deliveries to
    /// dead nodes, but what the input owns is the sender's to release.
    ///
    /// Driver injections, timer firings and shutdown signals use this path:
    /// refusing them would wedge the runtime, so the mark only governs
    /// cooperating senders going through [`Self::try_push`].
    ///
    /// # Errors
    ///
    /// The input itself, if the inbox is closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.queue.lock().expect("inbox lock poisoned");
        if state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        Ok(())
    }

    /// Enqueues one input, honouring the high-water mark: a saturated inbox
    /// hands the input back ([`PushOutcome::Saturated`]) instead of growing,
    /// so the sender can defer delivery until the receiver drains.
    pub fn try_push(&self, item: T) -> PushOutcome<T> {
        let mut state = self.queue.lock().expect("inbox lock poisoned");
        if state.closed {
            return PushOutcome::Closed(item);
        }
        if self.high_water > 0 && state.items.len() >= self.high_water {
            return PushOutcome::Saturated(item);
        }
        state.items.push_back(item);
        PushOutcome::Delivered
    }

    /// Dequeues one input without blocking.
    pub fn try_pop(&self) -> Option<T> {
        self.queue
            .lock()
            .expect("inbox lock poisoned")
            .items
            .pop_front()
    }

    /// Moves up to `budget` inputs into `into`, preserving order. Returns how
    /// many were moved.
    pub fn drain_up_to(&self, budget: usize, into: &mut Vec<T>) -> usize {
        let mut state = self.queue.lock().expect("inbox lock poisoned");
        let take = budget.min(state.items.len());
        into.extend(state.items.drain(..take));
        take
    }

    /// Number of queued inputs (the inbox depth).
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.lock().expect("inbox lock poisoned").items.len()
    }

    /// Returns `true` if no input is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the inbox: later pushes are handed back to their senders.
    /// Inputs already queued stay queued until drained.
    pub fn close(&self) {
        self.queue.lock().expect("inbox lock poisoned").closed = true;
    }

    /// Reopens a closed inbox (a restarted node accepting traffic again).
    pub fn reopen(&self) {
        self.queue.lock().expect("inbox lock poisoned").closed = false;
    }
}

/// What a worker observed when asking the scheduler for work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// A host is ready; the worker now owns its dispatch round.
    Ready(usize),
    /// No host became ready within the timeout.
    Idle,
    /// The scheduler is shut down; the worker should exit.
    Shutdown,
}

/// Per-host scheduling state (the at-most-once-queued discipline).
#[derive(Debug)]
struct SlotState {
    /// `true` while the slot is in the ready queue *or* being dispatched by
    /// a worker.
    scheduled: AtomicBool,
    /// Raised by `mark_ready` on an already-scheduled slot; consumed by
    /// `finish`. This closes the classic lost-wakeup race: a producer that
    /// pushes *after* the dispatching worker's final backlog check still
    /// forces one more dispatch round.
    repoll: AtomicBool,
}

/// The ready queue and how many workers wait on it, under one lock.
#[derive(Debug, Default)]
struct ReadyQueue {
    hosts: VecDeque<usize>,
    /// Workers blocked in [`Scheduler::next_ready`]: an enqueue only pays
    /// for a condvar notify when someone is there to receive it.
    parked: usize,
}

/// The readiness queue multiplexing many hosts over a worker pool.
///
/// Hosts are identified by their slot index. [`Scheduler::mark_ready`]
/// enqueues a host at most once (an atomic-flag guard), so a host with a
/// thousand queued inputs occupies one queue entry, and hosts are served in
/// global readiness order by whichever worker asks first — FIFO fairness
/// with no duplicate wakeups.
#[derive(Debug)]
pub struct Scheduler {
    ready: Mutex<ReadyQueue>,
    /// Wakes parked workers.
    available: Condvar,
    slots: Vec<SlotState>,
    workers: usize,
    shutdown: AtomicBool,
    config: SchedulerConfig,
}

impl Scheduler {
    /// Creates a scheduler for `slots` hosts served by `workers` workers
    /// (clamped to at least one; it only bounds the worker indices
    /// [`Self::next_ready`] accepts).
    #[must_use]
    pub fn new(slots: usize, workers: usize, config: SchedulerConfig) -> Self {
        Self {
            ready: Mutex::new(ReadyQueue::default()),
            available: Condvar::new(),
            slots: (0..slots)
                .map(|_| SlotState {
                    scheduled: AtomicBool::new(false),
                    repoll: AtomicBool::new(false),
                })
                .collect(),
            workers: workers.max(1),
            shutdown: AtomicBool::new(false),
            config,
        }
    }

    /// The scheduling knobs the workers should honour.
    #[must_use]
    pub fn config(&self) -> SchedulerConfig {
        self.config
    }

    /// Marks a host as having pending input. Returns `true` if the host was
    /// newly enqueued (and a parked worker, if any, was woken); on an
    /// already-scheduled host it records a repoll instead (consumed by
    /// [`Self::finish`]), so an input pushed while the host is being
    /// dispatched is never stranded.
    pub fn mark_ready(&self, slot: usize) -> bool {
        if self.shutdown.load(Ordering::SeqCst) || slot >= self.slots.len() {
            return false;
        }
        let state = &self.slots[slot];
        loop {
            if state
                .scheduled
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.enqueue(slot);
                return true;
            }
            state.repoll.store(true, Ordering::SeqCst);
            if state.scheduled.load(Ordering::SeqCst) {
                // Still scheduled after the repoll was raised: `finish` is
                // guaranteed to observe it (it re-checks repoll after
                // releasing the slot), so the wakeup cannot be lost.
                return false;
            }
            // The round finished between the failed CAS and the repoll store
            // and may have missed it — retry so the host is queued.
        }
    }

    /// Pops the oldest ready host for `worker`, parking up to `timeout` for
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is not below the worker count given to
    /// [`Self::new`].
    pub fn next_ready(&self, worker: usize, timeout: StdDuration) -> Poll {
        assert!(worker < self.workers, "worker {worker} out of range");
        let deadline = std::time::Instant::now() + timeout;
        let mut ready = self.ready.lock().expect("scheduler lock poisoned");
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return Poll::Shutdown;
            }
            if let Some(slot) = ready.hosts.pop_front() {
                return Poll::Ready(slot);
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Poll::Idle;
            }
            // The queue was checked under the lock the enqueuer takes, and
            // the wait releases it atomically: an entry pushed after the
            // check finds `parked` raised and notifies.
            ready.parked += 1;
            ready = self
                .available
                .wait_timeout(ready, remaining)
                .expect("scheduler lock poisoned")
                .0;
            ready.parked -= 1;
        }
    }

    /// Ends a dispatch round for `slot`. The host is re-queued (at the back,
    /// so other ready hosts run first) if the worker saw leftover backlog
    /// (`still_pending`) *or* a [`Self::mark_ready`] raced the end of the
    /// round — the worker's backlog check is a snapshot, and the repoll flag
    /// is what makes the handoff race-free.
    pub fn finish(&self, slot: usize, still_pending: bool) {
        if slot >= self.slots.len() {
            return;
        }
        let state = &self.slots[slot];
        // The swap must run unconditionally: a repoll raised during a round
        // that also saw backlog is answered by the requeue below, so it is
        // consumed either way (no `||` short-circuit).
        let repoll = state.repoll.swap(false, Ordering::SeqCst);
        let pending = still_pending || repoll;
        if pending && !self.shutdown.load(Ordering::SeqCst) {
            // Scheduled stays true: the slot goes straight back in the queue.
            self.enqueue(slot);
            return;
        }
        state.scheduled.store(false, Ordering::SeqCst);
        // A mark_ready may have raised repoll between the swap above and the
        // store: it saw `scheduled == true` and trusts this round to act.
        // Re-check now that the slot is released; whoever wins the CAS queues
        // the host exactly once.
        if state.repoll.swap(false, Ordering::SeqCst)
            && !self.shutdown.load(Ordering::SeqCst)
            && state
                .scheduled
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            self.enqueue(slot);
        }
    }

    /// Shuts the scheduler down: every waiting and future [`Self::next_ready`]
    /// returns [`Poll::Shutdown`].
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Taken so no worker sits between its shutdown check and its wait.
        let _ready = self.ready.lock().expect("scheduler lock poisoned");
        self.available.notify_all();
    }

    /// Appends `slot` to the ready queue and wakes a parked worker, if any.
    fn enqueue(&self, slot: usize) {
        let mut ready = self.ready.lock().expect("scheduler lock poisoned");
        ready.hosts.push_back(slot);
        let wake = ready.parked > 0;
        drop(ready);
        if wake {
            self.available.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Duration as StdDuration;

    const TICK: StdDuration = StdDuration::from_millis(20);

    fn single(slots: usize) -> Scheduler {
        Scheduler::new(slots, 1, SchedulerConfig::default())
    }

    #[test]
    fn inbox_delivers_in_order_and_reports_depth() {
        let inbox = Inbox::new();
        assert!(inbox.is_empty());
        for i in 0..5 {
            assert!(inbox.push(i).is_ok());
        }
        assert_eq!(inbox.len(), 5);
        assert_eq!(inbox.try_pop(), Some(0));
        let mut batch = Vec::new();
        assert_eq!(inbox.drain_up_to(3, &mut batch), 3);
        assert_eq!(batch, vec![1, 2, 3]);
        assert_eq!(inbox.try_pop(), Some(4));
        assert_eq!(inbox.try_pop(), None);
    }

    #[test]
    fn closed_inbox_drops_pushes_and_drains_before_reporting_closed() {
        // "Closed" is reported to senders; queued inputs still drain.
        let inbox = Inbox::new();
        assert!(inbox.push("queued").is_ok());
        inbox.close();
        // Refused inputs come back to the sender on both paths.
        assert_eq!(inbox.push("dropped"), Err("dropped"));
        assert_eq!(
            inbox.try_push("also dropped"),
            PushOutcome::Closed("also dropped")
        );
        assert_eq!(inbox.try_pop(), Some("queued"));
        assert_eq!(inbox.try_pop(), None);
        inbox.reopen();
        assert!(inbox.push("again").is_ok());
        assert_eq!(inbox.try_pop(), Some("again"));
    }

    #[test]
    fn bounded_inbox_saturates_at_the_high_water_mark_without_loss() {
        let inbox = Inbox::bounded(2);
        assert_eq!(inbox.try_push(1), PushOutcome::Delivered);
        assert_eq!(inbox.try_push(2), PushOutcome::Delivered);
        // The third input is handed back, not dropped.
        assert_eq!(inbox.try_push(3), PushOutcome::Saturated(3));
        // The forced path ignores the mark (driver injections must land).
        assert!(inbox.push(4).is_ok());
        assert_eq!(inbox.len(), 3);
        // Draining reopens capacity for the deferred retry.
        assert_eq!(inbox.try_pop(), Some(1));
        assert_eq!(inbox.try_pop(), Some(2));
        assert_eq!(inbox.try_push(3), PushOutcome::Delivered);
        assert_eq!(inbox.try_pop(), Some(4));
        assert_eq!(inbox.try_pop(), Some(3));
        assert_eq!(inbox.try_pop(), None);
    }

    #[test]
    fn unbounded_try_push_never_saturates() {
        let inbox = Inbox::new();
        for i in 0..10_000 {
            assert_eq!(inbox.try_push(i), PushOutcome::Delivered);
        }
        assert_eq!(inbox.len(), 10_000);
    }

    proptest! {
        /// Backpressure is lossless: across arbitrary interleavings of
        /// bounded pushes and drains, every input is delivered exactly once
        /// and in order once the deferred retries are flushed.
        #[test]
        fn bounded_inbox_loses_and_duplicates_nothing(
            high_water in 1usize..8,
            ops in proptest::collection::vec((0u8..2, 1u8..6), 1..40),
        ) {
            let inbox = Inbox::bounded(high_water);
            let mut deferred: VecDeque<u32> = VecDeque::new();
            let mut next = 0u32;
            let mut received = Vec::new();
            for (kind, count) in ops {
                if kind == 0 {
                    // Produce `count` inputs: saturated ones defer, in order.
                    for _ in 0..count {
                        // Retry deferred inputs first to preserve order.
                        while let Some(&item) = deferred.front() {
                            match inbox.try_push(item) {
                                PushOutcome::Delivered => { deferred.pop_front(); }
                                PushOutcome::Saturated(_) => break,
                                PushOutcome::Closed(_) => unreachable!("never closed"),
                            }
                        }
                        let item = next;
                        next += 1;
                        if !deferred.is_empty() {
                            deferred.push_back(item);
                            continue;
                        }
                        match inbox.try_push(item) {
                            PushOutcome::Delivered => {}
                            PushOutcome::Saturated(item) => deferred.push_back(item),
                            PushOutcome::Closed(_) => unreachable!("never closed"),
                        }
                    }
                } else {
                    for _ in 0..count {
                        if let Some(item) = inbox.try_pop() {
                            received.push(item);
                        }
                    }
                }
                prop_assert!(inbox.len() <= high_water, "the mark bounds the queue");
            }
            // Flush: drain deferred and queued inputs to the receiver.
            loop {
                while let Some(&item) = deferred.front() {
                    match inbox.try_push(item) {
                        PushOutcome::Delivered => { deferred.pop_front(); }
                        PushOutcome::Saturated(_) => break,
                        PushOutcome::Closed(_) => unreachable!("never closed"),
                    }
                }
                match inbox.try_pop() {
                    Some(item) => received.push(item),
                    None if deferred.is_empty() => break,
                    None => {}
                }
            }
            prop_assert_eq!(received.len(), next as usize, "no loss, no duplicates");
            let expected: Vec<u32> = (0..next).collect();
            prop_assert_eq!(received, expected, "delivery preserves order");
        }
    }

    fn queue_len(sched: &Scheduler) -> usize {
        sched.ready.lock().unwrap().hosts.len()
    }

    #[test]
    fn scheduler_enqueues_each_host_at_most_once() {
        let sched = single(4);
        assert!(sched.mark_ready(2));
        assert!(!sched.mark_ready(2), "double mark must not double-queue");
        assert!(sched.mark_ready(0));
        assert_eq!(queue_len(&sched), 2);
        // FIFO: first-marked host runs first.
        assert_eq!(sched.next_ready(0, TICK), Poll::Ready(2));
        // Marking while dispatched is absorbed by `finish(still_pending)`.
        assert!(!sched.mark_ready(2));
        sched.finish(2, true);
        assert_eq!(sched.next_ready(0, TICK), Poll::Ready(0));
        sched.finish(0, false);
        assert_eq!(sched.next_ready(0, TICK), Poll::Ready(2));
        sched.finish(2, false);
        assert_eq!(sched.next_ready(0, TICK), Poll::Idle);
        // Out-of-range slots are rejected.
        assert!(!sched.mark_ready(99));
    }

    #[test]
    fn hosts_are_served_in_global_fifo_order_across_workers() {
        // Slots of both parities, marked interleaved: whichever worker asks
        // gets the oldest ready host, never a later one that some per-worker
        // partition would have handed it first.
        let sched = Scheduler::new(4, 2, SchedulerConfig::default());
        for slot in [1, 0, 3, 2] {
            assert!(sched.mark_ready(slot));
        }
        assert_eq!(sched.next_ready(0, TICK), Poll::Ready(1));
        assert_eq!(sched.next_ready(1, TICK), Poll::Ready(0));
        assert_eq!(sched.next_ready(0, TICK), Poll::Ready(3));
        // A host re-queued by `finish` goes behind the hosts already waiting.
        sched.finish(1, true);
        assert_eq!(sched.next_ready(0, TICK), Poll::Ready(2));
        assert_eq!(sched.next_ready(1, TICK), Poll::Ready(1));
        for slot in 0..4 {
            sched.finish(slot, false);
        }
        assert_eq!(sched.next_ready(1, TICK), Poll::Idle);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn worker_indices_are_validated() {
        let sched = Scheduler::new(4, 2, SchedulerConfig::default());
        let _ = sched.next_ready(2, TICK);
    }

    #[test]
    fn mark_during_dispatch_forces_a_repoll_round() {
        // The lost-wakeup race: a producer pushes (and marks) after the
        // dispatching worker's final backlog check but before `finish`. The
        // repoll flag must force one more round even though the worker
        // reports no pending backlog.
        let sched = single(2);
        assert!(sched.mark_ready(1));
        assert_eq!(sched.next_ready(0, TICK), Poll::Ready(1));
        // Producer races the end of the round.
        assert!(!sched.mark_ready(1));
        // Worker snapshot said "empty" — the host must still be re-queued.
        sched.finish(1, false);
        assert_eq!(sched.next_ready(0, TICK), Poll::Ready(1));
        // The repoll was consumed: a quiet finish now parks the host.
        sched.finish(1, false);
        assert_eq!(sched.next_ready(0, TICK), Poll::Idle);
    }

    #[test]
    fn finished_hosts_can_be_marked_again() {
        let sched = Scheduler::new(2, 1, SchedulerConfig { run_budget: 7 });
        assert_eq!(sched.config().effective_run_budget(), 7);
        assert!(sched.mark_ready(1));
        assert_eq!(sched.next_ready(0, TICK), Poll::Ready(1));
        sched.finish(1, false);
        assert!(sched.mark_ready(1), "a finished host is schedulable again");
    }

    #[test]
    fn shutdown_wakes_waiting_workers() {
        let sched = Arc::new(Scheduler::new(1, 2, SchedulerConfig::default()));
        let waiters: Vec<_> = (0..2)
            .map(|worker| {
                let sched = Arc::clone(&sched);
                std::thread::spawn(move || sched.next_ready(worker, StdDuration::from_secs(30)))
            })
            .collect();
        std::thread::sleep(TICK);
        sched.shutdown();
        for waiter in waiters {
            assert_eq!(waiter.join().unwrap(), Poll::Shutdown);
        }
        assert!(
            !sched.mark_ready(0),
            "a shut-down scheduler accepts no work"
        );
        assert_eq!(sched.next_ready(0, TICK), Poll::Shutdown);
    }

    #[test]
    fn run_budget_clamps_to_the_default() {
        assert_eq!(
            SchedulerConfig::default().effective_run_budget(),
            DEFAULT_RUN_BUDGET
        );
        assert_eq!(
            SchedulerConfig { run_budget: 0 }.effective_run_budget(),
            DEFAULT_RUN_BUDGET
        );
    }

    #[test]
    fn a_skewed_backlog_spreads_over_all_workers() {
        // Every ready host is one a per-worker partition would have given to
        // worker 0; the other three workers must end up serving a share
        // instead of idling.
        let workers = 4;
        let slots = 64;
        let sched = Arc::new(Scheduler::new(slots, workers, SchedulerConfig::default()));
        let served: Arc<Vec<AtomicUsize>> =
            Arc::new((0..workers).map(|_| AtomicUsize::new(0)).collect());
        let skewed: Vec<usize> = (0..slots).step_by(workers).collect();
        for &slot in &skewed {
            assert!(sched.mark_ready(slot));
        }
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let sched = Arc::clone(&sched);
                let served = Arc::clone(&served);
                std::thread::spawn(move || loop {
                    match sched.next_ready(worker, StdDuration::from_millis(100)) {
                        Poll::Ready(slot) => {
                            // A tiny dispatch round keeps all workers hungry.
                            std::thread::sleep(StdDuration::from_micros(500));
                            served[worker].fetch_add(1, Ordering::SeqCst);
                            sched.finish(slot, false);
                        }
                        Poll::Idle => return,
                        Poll::Shutdown => return,
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let counts: Vec<usize> = served.iter().map(|c| c.load(Ordering::SeqCst)).collect();
        let total: usize = counts.iter().sum();
        assert_eq!(total, skewed.len(), "every slot served exactly once");
        let others = counts[1..].iter().sum::<usize>();
        assert!(others > 0, "workers 1..4 served nothing: counts {counts:?}");
    }

    #[test]
    fn at_most_once_queued_holds_under_concurrent_marks() {
        // Producers hammer mark_ready on a few slots while a worker pool
        // pops, "dispatches" and finishes. A per-slot dispatching flag proves
        // no slot is ever owned by two workers at once, and a final drain
        // proves no mark is lost.
        let workers = 4;
        let slots = 8;
        let sched = Arc::new(Scheduler::new(slots, workers, SchedulerConfig::default()));
        let dispatching: Arc<Vec<AtomicBool>> =
            Arc::new((0..slots).map(|_| AtomicBool::new(false)).collect());
        let pending: Arc<Vec<AtomicUsize>> =
            Arc::new((0..slots).map(|_| AtomicUsize::new(0)).collect());
        let stop = Arc::new(AtomicBool::new(false));

        let producers: Vec<_> = (0..2)
            .map(|p| {
                let sched = Arc::clone(&sched);
                let pending = Arc::clone(&pending);
                std::thread::spawn(move || {
                    for i in 0..2_000usize {
                        let slot = (i * 7 + p * 3) % slots;
                        pending[slot].fetch_add(1, Ordering::SeqCst);
                        sched.mark_ready(slot);
                    }
                })
            })
            .collect();

        let consumers: Vec<_> = (0..workers)
            .map(|worker| {
                let sched = Arc::clone(&sched);
                let dispatching = Arc::clone(&dispatching);
                let pending = Arc::clone(&pending);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    loop {
                        match sched.next_ready(worker, StdDuration::from_millis(50)) {
                            Poll::Ready(slot) => {
                                assert!(
                                    !dispatching[slot].swap(true, Ordering::SeqCst),
                                    "slot {slot} dispatched twice concurrently"
                                );
                                // Absorb the backlog snapshot, like a real
                                // dispatch round draining the inbox.
                                pending[slot].store(0, Ordering::SeqCst);
                                dispatching[slot].store(false, Ordering::SeqCst);
                                let still = pending[slot].load(Ordering::SeqCst) > 0;
                                sched.finish(slot, still);
                            }
                            Poll::Idle => {
                                if stop.load(Ordering::SeqCst) {
                                    return;
                                }
                            }
                            Poll::Shutdown => return,
                        }
                    }
                })
            })
            .collect();

        for producer in producers {
            producer.join().unwrap();
        }
        stop.store(true, Ordering::SeqCst);
        for consumer in consumers {
            consumer.join().unwrap();
        }
        // No mark was lost: every slot's pending count was absorbed.
        for (slot, count) in pending.iter().enumerate() {
            assert_eq!(
                count.load(Ordering::SeqCst),
                0,
                "slot {slot} kept unabsorbed marks"
            );
        }
        assert_eq!(queue_len(&sched), 0);
    }

    #[test]
    fn a_parked_worker_wakes_promptly_for_new_work() {
        // The park/unpark race: worker 1 parks with a long timeout while
        // worker 0 never polls; a host marked ready must wake worker 1
        // promptly, not after the park timeout.
        let sched = Arc::new(Scheduler::new(4, 2, SchedulerConfig::default()));
        let waiter = Arc::clone(&sched);
        let handle = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            let poll = waiter.next_ready(1, StdDuration::from_secs(30));
            (poll, start.elapsed())
        });
        std::thread::sleep(TICK);
        assert!(sched.mark_ready(0));
        let (poll, waited) = handle.join().unwrap();
        assert_eq!(poll, Poll::Ready(0));
        assert!(
            waited < StdDuration::from_secs(5),
            "worker 1 should be woken promptly, waited {waited:?}"
        );
        sched.finish(0, false);
    }

    #[test]
    fn mark_racing_a_park_is_never_lost() {
        // Repeatedly park a worker with a short timeout while a producer
        // marks at unsynchronised instants; every mark must be served.
        let sched = Arc::new(Scheduler::new(1, 1, SchedulerConfig::default()));
        let rounds = 200;
        let stop = Arc::new(AtomicBool::new(false));
        let consumer = {
            let sched = Arc::clone(&sched);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut served = 0u32;
                loop {
                    match sched.next_ready(0, StdDuration::from_millis(10)) {
                        Poll::Ready(slot) => {
                            served += 1;
                            sched.finish(slot, false);
                        }
                        Poll::Idle => {
                            if stop.load(Ordering::SeqCst) {
                                return served;
                            }
                        }
                        Poll::Shutdown => return served,
                    }
                }
            })
        };
        for _ in 0..rounds {
            // Each iteration waits for a *fresh* enqueue, so the scheduler
            // must serve at least `rounds` distinct dispatch rounds.
            while !sched.mark_ready(0) {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::SeqCst);
        let served = consumer.join().unwrap();
        assert!(
            served >= rounds,
            "every fresh enqueue forces a round: served {served} < {rounds}"
        );
    }
}
