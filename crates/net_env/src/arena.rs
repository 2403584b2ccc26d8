//! A pooled frame-buffer arena for the steady-state frame path.
//!
//! Every frame the cluster sends is encoded into a `Vec<u8>`, and every
//! socket connection reassembles inbound bytes in a `Vec<u8>`. Allocating
//! those per frame (or per connection) puts the allocator on the hot path;
//! the [`BufferArena`] recycles them instead. Encode takes a buffer; it
//! rides the mailbox (in-process) or the outbound queue to the socket and
//! comes back here once decoded or written; reassembly buffers come from
//! and return to the same pool across connection churn.
//!
//! The arena keeps score: [`BufferArena::fresh_buffers`] counts `take`
//! calls the pool could not serve (a real allocation), and
//! [`BufferArena::recycled_buffers`] counts the hits. Once a cluster is
//! warm, the fresh counter must stop moving — `cluster_bench
//! --assert-steady-alloc` turns exactly that into a hard failure.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Initial capacity of freshly allocated buffers: comfortably holds the
/// typical gossip/anti-entropy frame so first use does not regrow.
const FRESH_BUFFER_BYTES: usize = 4 * 1024;

/// Buffers that grew beyond this capacity are dropped on return instead of
/// pooled, so one oversized anti-entropy frame cannot pin megabytes.
const MAX_POOLED_CAPACITY: usize = 1024 * 1024;

/// A shared pool of reusable byte buffers with hit/miss accounting.
#[derive(Debug)]
pub(crate) struct BufferArena {
    pool: Mutex<Vec<Vec<u8>>>,
    /// Maximum buffers kept pooled; `0` means unbounded.
    capacity: usize,
    fresh: AtomicU64,
    recycled: AtomicU64,
}

impl BufferArena {
    /// Creates an arena keeping at most `capacity` idle buffers (0 = no
    /// cap).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            pool: Mutex::new(Vec::new()),
            capacity,
            fresh: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
        }
    }

    /// Hands out an empty buffer, recycling a pooled one when available.
    pub(crate) fn take(&self) -> Vec<u8> {
        if let Some(buffer) = self.pool.lock().pop() {
            self.recycled.fetch_add(1, Ordering::Relaxed);
            return buffer;
        }
        self.fresh.fetch_add(1, Ordering::Relaxed);
        Vec::with_capacity(FRESH_BUFFER_BYTES)
    }

    /// Returns a buffer to the pool (cleared), unless it outgrew the pooling
    /// threshold or the pool is at capacity.
    pub(crate) fn give(&self, mut buffer: Vec<u8>) {
        if buffer.capacity() > MAX_POOLED_CAPACITY {
            return;
        }
        buffer.clear();
        let mut pool = self.pool.lock();
        if self.capacity == 0 || pool.len() < self.capacity {
            pool.push(buffer);
        }
    }

    /// `take` calls that had to allocate because the pool was empty.
    pub(crate) fn fresh_buffers(&self) -> u64 {
        self.fresh.load(Ordering::Relaxed)
    }

    /// `take` calls served from the pool.
    pub(crate) fn recycled_buffers(&self) -> u64 {
        self.recycled.load(Ordering::Relaxed)
    }

    /// Buffers currently idle in the pool.
    #[cfg(test)]
    pub(crate) fn idle_buffers(&self) -> usize {
        self.pool.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_recycle_and_counters_track() {
        let arena = BufferArena::new(0);
        let mut a = arena.take();
        a.extend_from_slice(b"hello");
        assert_eq!(arena.fresh_buffers(), 1);
        arena.give(a);
        let b = arena.take();
        assert!(b.is_empty(), "recycled buffers come back cleared");
        assert!(b.capacity() >= 5, "the allocation is reused");
        assert_eq!(arena.fresh_buffers(), 1, "no second allocation");
        assert_eq!(arena.recycled_buffers(), 1);
    }

    #[test]
    fn capacity_caps_the_idle_pool() {
        let arena = BufferArena::new(2);
        let buffers: Vec<_> = (0..4).map(|_| arena.take()).collect();
        for buffer in buffers {
            arena.give(buffer);
        }
        assert_eq!(arena.idle_buffers(), 2);
    }

    #[test]
    fn oversized_buffers_are_not_pooled() {
        let arena = BufferArena::new(0);
        let huge = Vec::with_capacity(MAX_POOLED_CAPACITY + 1);
        arena.give(huge);
        assert_eq!(arena.idle_buffers(), 0);
    }
}
