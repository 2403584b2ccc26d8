//! Duplicate suppression for request identifiers: one sliding sequence
//! window per client.
//!
//! A [`RequestId`] is a client id plus that client's sequence number, and a
//! client's sequence numbers only go up. So instead of remembering ids in a
//! hashed set, a node keeps, per client, the highest sequence it has seen
//! and a ring bitmap over the `W` sequences below it — the anti-replay
//! window of IPsec (RFC 4303 §3.4.3, RFC 6479). "Have I seen this id?" is a
//! test-and-set of one bit, and the active part of a bitmap is a cache line
//! or two.

use dataflasks_types::RequestId;

/// Most client windows one cache keeps at once; a further client evicts the
/// least recently used window, and that client's ids look new again.
pub const MAX_CLIENT_WINDOWS: usize = 64;

/// What [`DedupCache::sight`] made of a request id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sighting {
    /// First sighting: the request is applied and forwarded.
    New,
    /// Seen before and still inside its client's window.
    Duplicate,
    /// More than the window length behind the newest sequence seen from its
    /// client: refused without knowing whether it was seen.
    Stale,
}

/// Per-client sliding windows over request sequence numbers.
///
/// Epidemic dissemination delivers the same request to a node through several
/// paths; the node forwards (and applies) it only the first time. For each
/// client (at most [`MAX_CLIENT_WINDOWS`], least recently used evicted) the
/// cache holds `next`, one past the highest sequence seen, and a ring of `W`
/// bits for the sequences `next - W .. next`. A sequence at or above `next`
/// slides the window up (clearing the bits it passes over) and is new; one
/// inside the window is a test-and-set of its bit; one further behind is
/// refused as [`Sighting::Stale`]. Memory stays constant however long the
/// node runs: `W / 8` bytes per active client, allocated on that client's
/// first sighting — an idle cache allocates nothing.
///
/// # Example
///
/// ```
/// use dataflasks_core::dedup::DedupCache;
/// use dataflasks_types::RequestId;
///
/// let mut cache = DedupCache::new(64);
/// assert!(cache.first_sighting(RequestId::new(1, 100)));
/// assert!(!cache.first_sighting(RequestId::new(1, 100)));
/// assert!(cache.first_sighting(RequestId::new(1, 99)), "in the window, unseen");
/// assert!(!cache.first_sighting(RequestId::new(1, 36)), "64 behind: stale");
/// ```
#[derive(Debug, Clone)]
pub struct DedupCache {
    /// Bitmap words per window (`W / 64`).
    words: usize,
    /// One head per resident client window.
    heads: Vec<WindowHead>,
    /// The windows' rings back to back: window `i` is
    /// `bits[i * words..(i + 1) * words]`, where bit `s mod W` is set iff
    /// sequence `s` of the window was seen.
    bits: Vec<u64>,
    /// Probe counter stamping each window's last use.
    clock: u64,
}

#[derive(Debug, Clone)]
struct WindowHead {
    client: u64,
    /// The highest sequence seen (`next - 1`; kept this way so that
    /// `u64::MAX` needs no 65th bit).
    highest: u64,
    last_used: u64,
}

/// Word index and bit of `sequence` in a ring of `words` words (`W` is a
/// multiple of 64, so `s mod W` splits without wider arithmetic).
fn slot(words: usize, sequence: u64) -> (usize, u64) {
    (
        ((sequence / 64) % words as u64) as usize,
        1 << (sequence % 64),
    )
}

/// Sets `sequence`'s bit and returns `true` if it was clear.
fn test_and_set(ring: &mut [u64], sequence: u64) -> bool {
    let (word, bit) = slot(ring.len(), sequence);
    let clear = ring[word] & bit == 0;
    ring[word] |= bit;
    clear
}

/// Clears the bits of the `count` sequences from `from` on (fewer than
/// `W`): they stood for sequences that just fell out of the window.
fn clear_span(ring: &mut [u64], from: u64, mut count: u64) {
    let (mut word, _) = slot(ring.len(), from);
    let mut offset = from % 64;
    while count > 0 {
        let span = count.min(64 - offset);
        ring[word] &= !((u64::MAX >> (64 - span)) << offset);
        count -= span;
        offset = 0;
        word += 1;
        if word == ring.len() {
            word = 0;
        }
    }
}

impl DedupCache {
    /// Creates a cache whose per-client window spans `capacity` sequence
    /// numbers, rounded up to a multiple of 64.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "dedup cache needs a non-zero capacity");
        Self {
            words: capacity.div_ceil(64),
            heads: Vec::new(),
            bits: Vec::new(),
            clock: 0,
        }
    }

    /// Window length `W` in sequence numbers.
    fn window(&self) -> u64 {
        self.words as u64 * 64
    }

    /// Records `id` and returns `true` if it had not been seen before.
    pub fn first_sighting(&mut self, id: RequestId) -> bool {
        self.sight(id) == Sighting::New
    }

    /// Records `id` and classifies it.
    pub fn sight(&mut self, id: RequestId) -> Sighting {
        self.clock += 1;
        let window = self.window();
        let sequence = id.sequence();
        let Some(index) = self.heads.iter().position(|h| h.client == id.client()) else {
            self.open_window(id);
            return Sighting::New;
        };
        let head = &mut self.heads[index];
        head.last_used = self.clock;
        let ring = &mut self.bits[index * self.words..(index + 1) * self.words];
        if sequence > head.highest {
            let jump = sequence - head.highest;
            if jump >= window {
                ring.fill(0);
            } else {
                clear_span(ring, head.highest + 1, jump);
            }
            head.highest = sequence;
            test_and_set(ring, sequence);
            Sighting::New
        } else if head.highest - sequence >= window {
            Sighting::Stale
        } else if test_and_set(ring, sequence) {
            Sighting::New
        } else {
            Sighting::Duplicate
        }
    }

    /// Returns `true` if `id` is currently remembered as seen.
    #[must_use]
    pub fn contains(&self, id: RequestId) -> bool {
        let sequence = id.sequence();
        self.heads
            .iter()
            .position(|h| h.client == id.client())
            .is_some_and(|index| {
                let highest = self.heads[index].highest;
                if sequence > highest || highest - sequence >= self.window() {
                    return false;
                }
                let (word, bit) = slot(self.words, sequence);
                self.bits[index * self.words + word] & bit != 0
            })
    }

    /// Number of identifiers currently remembered (in resident windows).
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits
            .iter()
            .map(|word| word.count_ones() as usize)
            .sum()
    }

    /// Returns `true` if nothing is remembered yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Starts a window for `id`'s client, holding only `id`; at the client
    /// limit it takes over the least recently used window.
    fn open_window(&mut self, id: RequestId) {
        let head = WindowHead {
            client: id.client(),
            highest: id.sequence(),
            last_used: self.clock,
        };
        let index = if self.heads.len() < MAX_CLIENT_WINDOWS {
            self.heads.push(head);
            self.bits.resize(self.heads.len() * self.words, 0);
            self.heads.len() - 1
        } else {
            let lru = self
                .heads
                .iter()
                .enumerate()
                .min_by_key(|(_, h)| h.last_used)
                .map(|(i, _)| i)
                .expect("the cache is at its client limit");
            self.heads[lru] = head;
            self.bits[lru * self.words..(lru + 1) * self.words].fill(0);
            lru
        };
        let ring = &mut self.bits[index * self.words..(index + 1) * self.words];
        test_and_set(ring, id.sequence());
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

    use proptest::prelude::*;

    use super::*;

    #[test]
    #[should_panic(expected = "non-zero capacity")]
    fn zero_capacity_is_rejected() {
        let _ = DedupCache::new(0);
    }

    #[test]
    fn capacity_rounds_up_to_whole_words() {
        assert_eq!(DedupCache::new(1).window(), 64);
        assert_eq!(DedupCache::new(64).window(), 64);
        assert_eq!(DedupCache::new(65).window(), 128);
        assert_eq!(DedupCache::new(4_096).window(), 4_096);
    }

    #[test]
    fn first_sighting_is_true_exactly_once() {
        let mut cache = DedupCache::new(8);
        let id = RequestId::new(1, 1);
        assert!(cache.first_sighting(id));
        assert!(!cache.first_sighting(id));
        assert!(!cache.first_sighting(id));
        assert!(cache.contains(id));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn is_empty_reflects_contents() {
        let mut cache = DedupCache::new(2);
        assert!(cache.is_empty());
        cache.first_sighting(RequestId::new(1, 1));
        assert!(!cache.is_empty());
    }

    #[test]
    fn window_edge_is_remembered_and_one_past_it_is_stale() {
        let mut cache = DedupCache::new(128);
        let w = cache.window();
        for sequence in 0..=w {
            assert_eq!(cache.sight(RequestId::new(2, sequence)), Sighting::New);
        }
        // `next` is now W + 1: sequence 1 is exactly W below it.
        assert!(cache.contains(RequestId::new(2, 1)));
        assert_eq!(cache.sight(RequestId::new(2, 1)), Sighting::Duplicate);
        assert!(!cache.contains(RequestId::new(2, 0)));
        assert_eq!(cache.sight(RequestId::new(2, 0)), Sighting::Stale);
        assert!(!cache.first_sighting(RequestId::new(2, 0)));

        // The same edge for a sequence never seen: W below `next` is new
        // (once), W + 1 below is refused.
        let mut sparse = DedupCache::new(128);
        assert!(sparse.first_sighting(RequestId::new(2, w)));
        assert_eq!(sparse.sight(RequestId::new(2, 1)), Sighting::New);
        assert_eq!(sparse.sight(RequestId::new(2, 1)), Sighting::Duplicate);
        assert_eq!(sparse.sight(RequestId::new(2, 0)), Sighting::Stale);
    }

    #[test]
    fn a_jump_of_a_whole_window_clears_it() {
        for jump in [128, 129, 1_000, u64::MAX - 10] {
            let mut cache = DedupCache::new(128);
            for sequence in 0..10 {
                assert!(cache.first_sighting(RequestId::new(3, sequence)));
            }
            let top = 9 + jump;
            assert!(cache.first_sighting(RequestId::new(3, top)));
            // Every bit but the new head's is clear: each sequence still
            // inside the window, including those at the old bits' positions,
            // is new exactly once.
            for sequence in top - 127..top {
                assert!(!cache.contains(RequestId::new(3, sequence)), "{jump}");
                assert!(cache.first_sighting(RequestId::new(3, sequence)));
                assert!(!cache.first_sighting(RequestId::new(3, sequence)));
            }
            assert_eq!(cache.sight(RequestId::new(3, 9)), Sighting::Stale);
        }
    }

    #[test]
    fn a_short_slide_clears_only_the_sequences_it_passes_over() {
        let mut cache = DedupCache::new(128);
        for sequence in 0..128 {
            assert!(cache.first_sighting(RequestId::new(4, sequence)));
        }
        // Sliding by 70 drops 0..70 from the window (their bit positions
        // now stand for 128..198) and keeps 70..128 remembered.
        assert!(cache.first_sighting(RequestId::new(4, 197)));
        for sequence in 70..128 {
            assert_eq!(
                cache.sight(RequestId::new(4, sequence)),
                Sighting::Duplicate
            );
        }
        for sequence in 128..197 {
            assert_eq!(cache.sight(RequestId::new(4, sequence)), Sighting::New);
        }
        for sequence in 0..70 {
            assert_eq!(cache.sight(RequestId::new(4, sequence)), Sighting::Stale);
        }
    }

    #[test]
    fn out_of_order_sequences_inside_the_window_are_new_exactly_once() {
        let mut cache = DedupCache::new(256);
        let order = [50u64, 10, 49, 11, 200, 12, 199, 50, 10, 63, 64, 65, 0];
        let mut seen = HashSet::new();
        for sequence in order {
            assert_eq!(
                cache.first_sighting(RequestId::new(5, sequence)),
                seen.insert(sequence),
                "sequence {sequence}"
            );
        }
        for sequence in order {
            assert_eq!(
                cache.sight(RequestId::new(5, sequence)),
                Sighting::Duplicate
            );
        }
    }

    #[test]
    fn the_sixty_fifth_client_evicts_the_least_recently_used_window() {
        let mut cache = DedupCache::new(64);
        for client in 0..MAX_CLIENT_WINDOWS as u64 {
            assert!(cache.first_sighting(RequestId::new(client, 7)));
        }
        // Touch client 0 again, so client 1 is now the least recently used.
        assert!(!cache.first_sighting(RequestId::new(0, 7)));
        assert!(cache.first_sighting(RequestId::new(1_000, 7)));
        assert!(!cache.contains(RequestId::new(1, 7)), "client 1 evicted");
        for client in (0..MAX_CLIENT_WINDOWS as u64).filter(|&c| c != 1) {
            assert!(cache.contains(RequestId::new(client, 7)), "client {client}");
        }
        assert!(cache.contains(RequestId::new(1_000, 7)));
        // The evicted client's ids look new again (a harmless late
        // duplicate), and readmitting it evicts the next oldest, client 2.
        assert!(cache.first_sighting(RequestId::new(1, 7)));
        assert!(!cache.contains(RequestId::new(2, 7)));
        assert_eq!(cache.heads.len(), MAX_CLIENT_WINDOWS);
    }

    #[test]
    fn extreme_sequences_and_client_ids_do_not_panic() {
        let mut cache = DedupCache::new(4_096);
        for client in [0, u64::MAX, u64::MAX - 1] {
            assert!(cache.first_sighting(RequestId::new(client, u64::MAX)));
            assert!(!cache.first_sighting(RequestId::new(client, u64::MAX)));
            assert!(cache.first_sighting(RequestId::new(client, u64::MAX - 4_095)));
            assert_eq!(
                cache.sight(RequestId::new(client, u64::MAX - 4_096)),
                Sighting::Stale
            );
            assert_eq!(cache.sight(RequestId::new(client, 0)), Sighting::Stale);
        }
        let mut low = DedupCache::new(4_096);
        assert!(low.first_sighting(RequestId::new(u64::MAX, 0)));
        assert!(low.first_sighting(RequestId::new(u64::MAX, u64::MAX)));
        assert!(!low.first_sighting(RequestId::new(u64::MAX, u64::MAX)));
        assert_eq!(low.sight(RequestId::new(u64::MAX, 0)), Sighting::Stale);
        let mut tiny = DedupCache::new(1);
        assert!(tiny.first_sighting(RequestId::new(u64::MAX, u64::MAX - 70)));
        assert!(tiny.first_sighting(RequestId::new(u64::MAX, u64::MAX)));
        assert!(!tiny.first_sighting(RequestId::new(u64::MAX, u64::MAX)));
    }

    #[test]
    fn nothing_is_allocated_before_the_first_sighting() {
        let cache = DedupCache::new(4_096);
        assert_eq!(cache.heads.capacity() + cache.bits.capacity(), 0);
        assert!(!cache.contains(RequestId::new(0, 0)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// With at most 64 clients, every id within `W` of its client's
        /// running maximum gets exactly the answer of an unbounded exact
        /// set; an id `W` or `W + 1` behind is refused as stale and
        /// remembers nothing.
        /// Steps mix short moves around the head (which fill the window
        /// densely, so a bit left uncleared shows) with falls back of up to
        /// `W + 1` and jumps ahead of up to `2W`; each client's sequences
        /// start at a different base so that values near `u64::MAX` are
        /// covered.
        #[test]
        fn window_matches_an_exact_set_within_its_reach(
            words in 1usize..4,
            clients in 1u64..65,
            steps in collection::vec((0u64..64, 0u8..4, any::<u64>()), 1..1_000),
        ) {
            let mut cache = DedupCache::new(words * 64);
            let w = cache.window();
            let mut exact = HashSet::new();
            let mut highest: HashMap<u64, u64> = HashMap::new();
            for (client, kind, amount) in steps {
                let client = client % clients;
                let base = client * (u64::MAX / 64);
                let top = *highest.get(&client).unwrap_or(&base);
                let sequence = match kind {
                    0 => top - (amount % 8).min(top - base),
                    1 => top + 1 + amount % 8,
                    2 => top - (amount % (w + 2)).min(top - base),
                    _ => top + 1 + amount % (2 * w),
                };
                highest.insert(client, top.max(sequence));
                let id = RequestId::new(client, sequence);
                let expected = if top - sequence.min(top) >= w {
                    Sighting::Stale
                } else if exact.insert(id) {
                    Sighting::New
                } else {
                    Sighting::Duplicate
                };
                prop_assert_eq!(cache.sight(id), expected, "{}", id);
            }
        }

        /// Whatever the ids, while a client's window stays resident the
        /// cache never answers "new" twice for one id — the never forwarded
        /// twice property. Over 64 clients force evictions, after which an
        /// id may legitimately be new once more.
        #[test]
        fn an_id_is_new_at_most_once_while_its_window_is_resident(
            steps in collection::vec((0u8..4, any::<u64>(), 0u8..3, any::<u64>()), 1..800),
        ) {
            let mut cache = DedupCache::new(128);
            let mut answered_new: HashMap<u64, HashSet<u64>> = HashMap::new();
            for (client_kind, client_value, sequence_kind, sequence_value) in steps {
                let client = match client_kind {
                    0 => u64::MAX - client_value % 4,
                    1 => client_value,
                    _ => client_value % 80,
                };
                let sequence = match sequence_kind {
                    0 => sequence_value % 400,
                    1 => u64::MAX - sequence_value % 400,
                    _ => sequence_value,
                };
                if !cache.heads.iter().any(|h| h.client == client) {
                    answered_new.remove(&client);
                }
                if cache.first_sighting(RequestId::new(client, sequence)) {
                    prop_assert!(
                        answered_new.entry(client).or_default().insert(sequence),
                        "c{}#{} answered new twice",
                        client,
                        sequence
                    );
                }
                prop_assert!(cache.heads.len() <= MAX_CLIENT_WINDOWS);
            }
        }
    }
}
