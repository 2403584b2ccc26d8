//! The parallel half of the simulator's event loop: one lookahead window's
//! node rounds, grouped by node and run on every core.
//!
//! [`Simulation::run_until`](crate::Simulation::run_until) dispatches in
//! batches — the queued events and wheel timers due inside one lookahead
//! window, which no round's outputs can reach into — and plans each batch's
//! node rounds into a [`Batch`]: all rounds of one node form one [`Group`],
//! in batch order (a group may span several instants), and the node's host
//! is lent to the group. A [`Pool`] runs the groups: the calling thread and
//! one helper thread per further core each claim the next unclaimed group
//! until none is left, every thread on its own [`DispatchScratch`], and
//! every round captures its [`Output`]s instead of routing them. The
//! simulation then routes the captured outputs on the calling thread, in
//! batch order.
//!
//! A round reads and writes only its own node, so rounds of different nodes
//! commute, and the rounds of one node keep their order inside its group.
//! Everything shared — the simulation RNG, the event queue's order, the
//! timer wheel, the injected-fault tallies — is touched only by the routing,
//! in the order the one-event-at-a-time loop touched it. A seeded run is
//! therefore the same run at any core count.

use std::mem;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::{Builder, Scope, ScopedJoinHandle};

use dataflasks_core::{
    ClientId, ClientRequest, DefaultStore, DispatchScratch, Message, NodeHost, Output, TimerKind,
};
use dataflasks_types::{NodeId, SimTime};

use crate::network::EventPayload;

/// The host type every simulated node runs in.
pub(crate) type Host = NodeHost<DefaultStore>;

/// What one node round is fed.
pub(crate) enum RoundInput {
    /// One protocol message.
    Deliver { from: NodeId, message: Message },
    /// One per-destination batch of protocol messages, in order.
    DeliverBatch {
        from: NodeId,
        messages: Vec<Message>,
    },
    /// A client operation at its contact node.
    Client {
        client: ClientId,
        request: ClientRequest,
    },
    /// A protocol timer firing.
    Timer(TimerKind),
}

impl RoundInput {
    /// Splits a queued event into the node it is addressed to and the round
    /// it feeds that node; hands back every event that is not a node round.
    pub(crate) fn from_event(payload: EventPayload) -> Result<(NodeId, Self), EventPayload> {
        match payload {
            EventPayload::Deliver { from, to, message } => {
                Ok((to, Self::Deliver { from, message }))
            }
            EventPayload::DeliverBatch { from, to, messages } => {
                Ok((to, Self::DeliverBatch { from, messages }))
            }
            EventPayload::ClientSubmit {
                client,
                contact,
                request,
            } => Ok((contact, Self::Client { client, request })),
            other => Err(other),
        }
    }

    /// Protocol messages the round delivers.
    pub(crate) fn messages(&self) -> u64 {
        match self {
            Self::Deliver { .. } => 1,
            Self::DeliverBatch { messages, .. } => messages.len() as u64,
            Self::Client { .. } | Self::Timer(_) => 0,
        }
    }

    /// Feeds the input to `host`, leaving the effects buffered in the scratch
    /// lent to it. Returns a delivered batch's spent vector, for the
    /// dispatching thread's pool.
    fn feed(self, host: &mut Host, now: SimTime) -> Option<Vec<Message>> {
        match self {
            Self::Deliver { from, message } => host.enqueue_message(from, message, now),
            Self::DeliverBatch { from, mut messages } => {
                for message in messages.drain(..) {
                    host.enqueue_message(from, message, now);
                }
                return Some(messages);
            }
            Self::Client { client, request } => host.enqueue_client_request(client, request, now),
            Self::Timer(kind) => host.enqueue_timer(kind, now),
        }
        None
    }
}

/// One planned node round.
struct Round {
    /// The instant the round runs at (its event's instant).
    now: SimTime,
    /// The input, taken when the round runs.
    input: Option<RoundInput>,
    /// Outputs the round captured into its group's [`Group::outputs`].
    outputs: usize,
}

/// The rounds of one node in one batch, in batch order, with the node's
/// lent host and the outputs the rounds emitted. Its vectors keep their
/// capacity from batch to batch.
#[derive(Default)]
struct Group {
    /// Slab index of the node.
    node: usize,
    host: Option<Box<Host>>,
    rounds: Vec<Round>,
    /// Rounds whose outputs were routed.
    routed: usize,
    outputs: Vec<Output>,
}

impl Group {
    /// Runs every round in order on `scratch`, capturing outputs.
    fn run(&mut self, scratch: &mut DispatchScratch) {
        let host = self.host.as_mut().expect("a planned group holds its host");
        for round in &mut self.rounds {
            let input = round.input.take().expect("a planned round runs once");
            host.swap_scratch(scratch);
            let spent = input.feed(host, round.now);
            let before = self.outputs.len();
            host.flush_effects(|output| self.outputs.push(output));
            round.outputs = self.outputs.len() - before;
            host.swap_scratch(scratch);
            if let Some(batch) = spent {
                scratch.recycle_batch(batch);
            }
        }
    }
}

/// The node rounds of one batch, grouped by node. Groups are claimed one at
/// a time by whichever thread is free, so the threads finish together.
#[derive(Default)]
pub(crate) struct Batch {
    /// Every group this batch or an earlier one used; the first
    /// [`Self::planned`] belong to this batch, the rest are pooled.
    groups: Vec<Mutex<Group>>,
    planned: usize,
    /// Index of the next group a thread claims.
    next: AtomicUsize,
}

impl Batch {
    /// Opens a group for slab node `node`, lending it the host; returns the
    /// group's index.
    pub(crate) fn open(&mut self, node: usize, host: Box<Host>) -> usize {
        if self.planned == self.groups.len() {
            self.groups.push(Mutex::default());
        }
        let group = unlocked(&mut self.groups[self.planned]);
        group.node = node;
        group.host = Some(host);
        self.planned += 1;
        self.planned - 1
    }

    /// Plans one round of `group`'s node.
    pub(crate) fn plan(&mut self, group: usize, now: SimTime, input: RoundInput) {
        unlocked(&mut self.groups[group]).rounds.push(Round {
            now,
            input: Some(input),
            outputs: 0,
        });
    }

    /// Claims and runs groups on `scratch` until none is left.
    fn run(&self, scratch: &mut DispatchScratch) {
        loop {
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            if index >= self.planned {
                return;
            }
            self.groups[index]
                .lock()
                .expect("a group's lock is never poisoned")
                .run(scratch);
        }
    }

    /// Takes every lent host back, with its node's slab index.
    pub(crate) fn hosts(&mut self) -> impl Iterator<Item = (usize, Box<Host>)> + '_ {
        self.groups[..self.planned].iter_mut().map(|group| {
            let group = unlocked(group);
            (
                group.node,
                group.host.take().expect("a group is lent one host"),
            )
        })
    }

    /// The next unrouted round of `group`: its node, its instant and the
    /// outputs it captured.
    pub(crate) fn route_next(
        &mut self,
        group: usize,
    ) -> (usize, SimTime, impl Iterator<Item = Output> + '_) {
        let group = unlocked(&mut self.groups[group]);
        let round = &group.rounds[group.routed];
        group.routed += 1;
        (group.node, round.now, group.outputs.drain(..round.outputs))
    }

    /// Empties the batch for the next one, keeping every allocation.
    pub(crate) fn clear(&mut self) {
        for group in &mut self.groups[..self.planned] {
            let group = unlocked(group);
            group.rounds.clear();
            group.routed = 0;
            debug_assert!(group.outputs.is_empty(), "every output was routed");
        }
        self.planned = 0;
        *self.next.get_mut() = 0;
    }
}

/// A group reached through exclusive access, which needs no locking.
fn unlocked(group: &mut Mutex<Group>) -> &mut Group {
    group.get_mut().expect("a group's lock is never poisoned")
}

/// How often the calling thread polls a helper for the end of a batch
/// before it blocks: about 0.1 ms on a 2-vCPU x86 host, less than the
/// serial work between two batches of a 10k-node run.
const DONE_POLLS: u32 = 4_000;

/// A helper thread's two channels: batches to work on, and word that it is
/// done with one.
struct Helper<'scope> {
    jobs: Sender<Arc<Batch>>,
    done: Receiver<()>,
    thread: ScopedJoinHandle<'scope, DispatchScratch>,
}

impl Helper<'_> {
    /// Waits until the helper is done with its batch. When the calling
    /// thread runs out of groups the helper is usually finishing its last
    /// one, so the wait polls before it blocks: a blocked receive costs a
    /// thread wake-up, which over a run's tens of thousands of batches adds
    /// up to more than the batch tails themselves.
    fn wait_done(&self) {
        for _ in 0..DONE_POLLS {
            match self.done.try_recv() {
                Ok(()) => return,
                Err(TryRecvError::Empty) => std::hint::spin_loop(),
                Err(TryRecvError::Disconnected) => break,
            }
        }
        self.done
            .recv()
            .expect("a helper reports every batch it is sent");
    }
}

/// The threads one [`Simulation::run_until`](crate::Simulation::run_until)
/// call runs batches on: the calling thread plus up to `helpers` helper
/// threads, spawned on first use. A helper blocks on its channel between
/// batches; it exits, handing back its scratch, when the pool is finished.
pub(crate) struct Pool<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    helpers: usize,
    running: Vec<Helper<'scope>>,
    /// Scratches for helpers not spawned yet (warm from earlier calls).
    spare: Vec<DispatchScratch>,
}

impl<'scope, 'env> Pool<'scope, 'env> {
    pub(crate) fn new(
        scope: &'scope Scope<'scope, 'env>,
        helpers: usize,
        spare: Vec<DispatchScratch>,
    ) -> Self {
        Self {
            scope,
            helpers,
            running: Vec::new(),
            spare,
        }
    }

    /// Runs every planned group of `batch`: with `parallel`, on the calling
    /// thread and every helper together; otherwise on the calling thread.
    pub(crate) fn run(&mut self, batch: &mut Batch, scratch: &mut DispatchScratch, parallel: bool) {
        if !parallel || self.helpers == 0 {
            batch.run(scratch);
            return;
        }
        while self.running.len() < self.helpers {
            self.spawn();
        }
        let shared = Arc::new(mem::take(batch));
        for helper in &self.running {
            helper
                .jobs
                .send(Arc::clone(&shared))
                .expect("a helper outlives the pool");
        }
        shared.run(scratch);
        for helper in &self.running {
            helper.wait_done();
        }
        *batch = Arc::into_inner(shared).expect("helpers drop a batch before reporting");
    }

    fn spawn(&mut self) {
        let (jobs, inbox) = channel::<Arc<Batch>>();
        let (outbox, done) = channel();
        let mut scratch = self.spare.pop().unwrap_or_default();
        let thread = Builder::new()
            .name(format!("dataflasks-sim-{}", self.running.len() + 1))
            .spawn_scoped(self.scope, move || {
                while let Ok(batch) = inbox.recv() {
                    batch.run(&mut scratch);
                    drop(batch);
                    if outbox.send(()).is_err() {
                        break;
                    }
                }
                scratch
            })
            .expect("spawning a simulator helper thread");
        self.running.push(Helper { jobs, done, thread });
    }

    /// Stops the helpers and returns every scratch, spawned or spare.
    pub(crate) fn finish(self) -> Vec<DispatchScratch> {
        let mut scratches = self.spare;
        for helper in self.running {
            drop(helper.jobs);
            scratches.push(helper.thread.join().expect("a simulator helper panicked"));
        }
        scratches
    }
}
