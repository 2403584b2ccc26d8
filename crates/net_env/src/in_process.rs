//! The in-process transport: a frame goes straight into the destination's
//! mailbox, with sender-side backpressure when the mailbox is bounded.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::cluster::{Delivery, Input, PoolConfig, Shared, Transport};

/// Knobs of the in-process cluster ([`AsyncCluster`](crate::AsyncCluster)).
#[derive(Debug, Clone, Copy, Default)]
pub struct AsyncClusterConfig {
    /// Worker threads multiplexing the node hosts. `0` (the default) picks
    /// `min(available cores, 8)`.
    pub workers: usize,
    /// High-water mark of each node's mailbox (`0` = unbounded). Only
    /// worker-to-worker protocol frames honour the mark — a saturated
    /// destination makes the sending worker hold the frame (preserving
    /// per-destination order) until the receiver drains; client submissions,
    /// driver injections and timer firings always land.
    pub mailbox_capacity: usize,
}

/// Frames travel through in-process mailboxes: a sending worker offers each
/// encoded frame to the destination's mailbox directly.
#[derive(Debug)]
pub struct InProcess;

impl Transport for InProcess {
    type Config = AsyncClusterConfig;
    type Outbox = DeferredFrames;
    type Threads = ();

    const WORKER_THREAD: &'static str = "dataflasks-worker";
    const TIMER_THREAD: &'static str = "dataflasks-timer-wheel";
    const CONTACT_SEED: u64 = 0xA5C1;

    fn pool(config: &AsyncClusterConfig) -> PoolConfig {
        PoolConfig {
            workers: config.workers,
            mailbox_capacity: config.mailbox_capacity,
        }
    }

    fn build(_config: &AsyncClusterConfig, _nodes: usize) -> (Self, ()) {
        (Self, ())
    }

    fn spawn(_shared: &Arc<Shared<Self>>, _threads: ()) -> Vec<JoinHandle<()>> {
        Vec::new()
    }

    /// Offers the frame behind any backlog already held for `to`
    /// (per-destination FIFO), holding it on saturation — unless the
    /// worker's backlog reached its memory cap, in which case `to`'s frames
    /// are delivered past the mark, in order.
    fn send(shared: &Shared<Self>, to: usize, frame: Vec<u8>, outbox: &mut DeferredFrames) {
        let input = Input::Frame {
            bytes: frame,
            conn: None,
        };
        if outbox.has_backlog(to) {
            if outbox.total >= DEFER_LIMIT {
                for held in outbox.take_backlog(to) {
                    shared.mail(to, held);
                }
                shared.mail(to, input);
            } else {
                outbox.push(to, input);
            }
            return;
        }
        if let Delivery::Saturated(input) = shared.offer(to, input) {
            outbox.push(to, input);
        }
    }

    /// Retries every held destination once, preserving per-destination
    /// order: frames deliver until the destination refuses again (its
    /// remaining backlog stays behind the refusal); destinations that
    /// drained or died release theirs.
    fn retry(shared: &Shared<Self>, outbox: &mut DeferredFrames) -> bool {
        let DeferredFrames { by_dest, total } = outbox;
        if *total == 0 {
            return false;
        }
        by_dest.retain(|&to, queue| {
            while let Some(input) = queue.pop_front() {
                match shared.offer(to, input) {
                    Delivery::Delivered | Delivery::Dropped => *total -= 1,
                    Delivery::Saturated(input) => {
                        queue.push_front(input);
                        return true;
                    }
                }
            }
            false
        });
        *total > 0
    }
}

/// Cap on frames one worker holds for saturated destinations. Past it, the
/// overflowing destination's backlog (in order) and the new frame are
/// delivered past the mark: under pathological pressure bounded sender
/// memory wins over the advisory high-water mark — still lossless, still
/// ordered.
const DEFER_LIMIT: usize = 4096;

/// A worker's frames refused by saturated destinations, retried every loop
/// iteration until the receivers drain. FIFO order is kept *per
/// destination* (the only order the transport ever promised); keying by
/// destination makes the is-blocked check on the send path O(1) instead of
/// a scan of the whole backlog.
#[derive(Default)]
pub struct DeferredFrames {
    by_dest: HashMap<usize, VecDeque<Input>>,
    total: usize,
}

impl DeferredFrames {
    fn has_backlog(&self, to: usize) -> bool {
        self.by_dest.get(&to).is_some_and(|queue| !queue.is_empty())
    }

    fn push(&mut self, to: usize, input: Input) {
        self.by_dest.entry(to).or_default().push_back(input);
        self.total += 1;
    }

    /// Removes and returns a destination's whole backlog (for the overflow
    /// spill path).
    fn take_backlog(&mut self, to: usize) -> VecDeque<Input> {
        let queue = self.by_dest.remove(&to).unwrap_or_default();
        self.total -= queue.len();
        queue
    }
}
