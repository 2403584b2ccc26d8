//! A hashed timer wheel for per-node protocol timers, shared by the
//! concurrent runtimes and the discrete-event simulator.
//!
//! The runtimes host up to hundreds of thousands of nodes, each with a
//! handful of periodic timers; a binary heap would pay `O(log n)` per re-arm
//! on a path that runs for every dispatched timer. The wheel makes arming
//! `O(1)`: deadlines hash into one of `S` slots by tick index, the driver
//! advances the cursor over the slots whose ticks have elapsed, and entries
//! for a future rotation are simply retained in their slot until their tick
//! comes around again.
//!
//! Superseding is generation-stamped: arming `(host, kind)` bumps its
//! generation, and entries with a stale stamp are discarded when their slot
//! is processed — so there is exactly one live deadline per host and timer
//! kind, and a re-arm never needs to search the wheel for the entry it
//! replaces. Generations live in a dense per-host table (hosts are compact
//! indices in every backend), so the per-fire staleness check is an array
//! load, not a hash probe.
//!
//! The wheel is generic over its notion of time through [`WheelInstant`]:
//! the worker-pool runtime drives it with [`std::time::Instant`], the
//! simulator with virtual [`SimTime`]. Two
//! advance disciplines cover the two uses:
//!
//! * [`TimerWheel::advance`] — bulk: collect everything due at `now`. The
//!   real-time runtimes call it once per driver wake-up; firing latency is
//!   bounded by one tick.
//! * [`TimerWheel::advance_next`] — exact: walk the wheel tick by tick up to
//!   a limit and stop at the **first** tick with due timers. The simulator
//!   interleaves this with its event queue so virtual time never jumps past a
//!   deadline, and each timer fires at exactly its armed instant.

use dataflasks_types::SimTime;

use crate::message::TimerKind;

/// The timer kinds a host can arm, as a dense index space.
const KIND_COUNT: usize = TimerKind::ALL.len();

/// A point in time a [`TimerWheel`] can be driven by.
///
/// Implementations exist for [`std::time::Instant`] (the concurrent
/// runtimes) and [`SimTime`] (the simulator).
pub trait WheelInstant: Copy + Ord {
    /// The duration type a wheel tick is expressed in.
    type Tick: Copy;

    /// Number of whole ticks between `epoch` and `self` (zero if `self` is
    /// not after `epoch`).
    fn ticks_since(self, epoch: Self, tick: Self::Tick) -> u64;

    /// Whether `tick` is the zero-length duration (rejected by
    /// [`TimerWheel::new`]).
    fn tick_is_zero(tick: Self::Tick) -> bool;
}

impl WheelInstant for std::time::Instant {
    type Tick = std::time::Duration;

    fn ticks_since(self, epoch: Self, tick: Self::Tick) -> u64 {
        (self.saturating_duration_since(epoch).as_nanos() / tick.as_nanos()) as u64
    }

    fn tick_is_zero(tick: Self::Tick) -> bool {
        tick.is_zero()
    }
}

impl WheelInstant for SimTime {
    type Tick = dataflasks_types::Duration;

    fn ticks_since(self, epoch: Self, tick: Self::Tick) -> u64 {
        self.saturating_since(epoch).as_millis() / tick.as_millis()
    }

    fn tick_is_zero(tick: Self::Tick) -> bool {
        tick.as_millis() == 0
    }
}

/// One armed deadline.
#[derive(Debug)]
struct TimerEntry<I> {
    at: I,
    host: usize,
    kind: TimerKind,
    generation: u64,
}

/// A timer collected by an advance: which host and kind fired, the exact
/// armed deadline, and the generation stamp the deadline carried (so a
/// driver that defers dispatch can re-check currency with
/// [`TimerWheel::is_current`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DueTimer<I> {
    /// Compact index of the host whose timer fired.
    pub host: usize,
    /// Which protocol activity runs.
    pub kind: TimerKind,
    /// The deadline the timer was armed for.
    pub at: I,
    /// Generation stamp of the fired deadline.
    pub generation: u64,
}

/// Generation bookkeeping for one `(host, kind)` pair.
#[derive(Debug, Default, Clone, Copy)]
struct GenState {
    generation: u64,
    /// Whether a deadline stamped with `generation` is still waiting in a
    /// slot (it neither fired nor was cancelled).
    live: bool,
}

/// A fixed-slot hashed timer wheel. Firing latency under bulk
/// [`advance`](Self::advance) is bounded by one tick; under
/// [`advance_next`](Self::advance_next) timers fire at their exact deadline.
#[derive(Debug)]
pub struct TimerWheel<I: WheelInstant> {
    slots: Vec<Vec<TimerEntry<I>>>,
    tick: I::Tick,
    epoch: I,
    /// Index of the next tick to process (ticks `< cursor` have fired).
    cursor: u64,
    /// Live generation per host and kind; entries stamped with an older
    /// generation are dead. Dense: indexed by host.
    generations: Vec<[GenState; KIND_COUNT]>,
    /// Number of live entries (dead ones are discounted lazily).
    armed: usize,
}

impl<I: WheelInstant> TimerWheel<I> {
    /// Creates a wheel of `slot_count` slots advancing every `tick`,
    /// starting its tick 0 at `epoch`.
    ///
    /// # Panics
    ///
    /// Panics if `slot_count` is zero or `tick` is the zero duration.
    #[must_use]
    pub fn new(slot_count: usize, tick: I::Tick, epoch: I) -> Self {
        assert!(slot_count > 0, "a wheel needs at least one slot");
        assert!(!I::tick_is_zero(tick), "a wheel tick must be positive");
        Self {
            slots: (0..slot_count).map(|_| Vec::new()).collect(),
            tick,
            epoch,
            cursor: 0,
            generations: Vec::new(),
            armed: 0,
        }
    }

    /// The wheel's tick (the driver's natural wake-up interval).
    #[must_use]
    pub fn tick(&self) -> I::Tick {
        self.tick
    }

    /// Number of live deadlines.
    #[must_use]
    pub fn armed(&self) -> usize {
        self.armed
    }

    fn state_mut(&mut self, host: usize) -> &mut [GenState; KIND_COUNT] {
        if host >= self.generations.len() {
            self.generations
                .resize(host + 1, [GenState::default(); KIND_COUNT]);
        }
        &mut self.generations[host]
    }

    /// Arms (or re-arms) the `(host, kind)` timer for `at`, superseding any
    /// live deadline of the same pair.
    pub fn arm(&mut self, host: usize, kind: TimerKind, at: I) {
        let cursor = self.cursor;
        let state = &mut self.state_mut(host)[kind as usize];
        state.generation += 1;
        let was_live = state.live;
        state.live = true;
        let generation = state.generation;
        if !was_live {
            self.armed += 1;
        }
        // A deadline already due (or in the partially elapsed current tick)
        // lands on the cursor's tick so the next advance fires it; it can
        // never land on an already-processed tick.
        let ticks = at.ticks_since(self.epoch, self.tick).max(cursor);
        let index = (ticks % self.slots.len() as u64) as usize;
        self.slots[index].push(TimerEntry {
            at,
            host,
            kind,
            generation,
        });
    }

    /// Cancels the live `(host, kind)` deadline, if any.
    pub fn cancel(&mut self, host: usize, kind: TimerKind) {
        if host < self.generations.len() {
            let _ = self.supersede(host, kind);
        }
    }

    /// Kills any live `(host, kind)` deadline and returns a fresh generation
    /// stamp that is current until the next arm/supersede of the pair.
    ///
    /// This is how a driver fires a timer *out of band* (an injected firing,
    /// or one it dispatches itself after collecting it): the pending wheel
    /// deadline is superseded, and the returned stamp lets the out-of-band
    /// event prove it is still current at dispatch time via
    /// [`Self::is_current`].
    pub fn supersede(&mut self, host: usize, kind: TimerKind) -> u64 {
        let state = &mut self.state_mut(host)[kind as usize];
        state.generation += 1;
        let generation = state.generation;
        let was_live = state.live;
        state.live = false;
        if was_live {
            self.armed -= 1;
        }
        generation
    }

    /// Whether `generation` is still the current stamp of `(host, kind)` —
    /// i.e. no arm or supersede happened since the stamp was issued.
    #[must_use]
    pub fn is_current(&self, host: usize, kind: TimerKind, generation: u64) -> bool {
        self.generations
            .get(host)
            .is_some_and(|kinds| kinds[kind as usize].generation == generation)
    }

    /// Collects every timer due at `now` into `due`, in firing order within
    /// each slot. Entries armed for a later rotation of the wheel stay put.
    ///
    /// This is the real-time discipline: everything that elapsed since the
    /// last advance fires in one batch, so firing latency is bounded by the
    /// driver's wake-up interval (one tick).
    pub fn advance(&mut self, now: I, due: &mut Vec<DueTimer<I>>) {
        let now_ticks = now.ticks_since(self.epoch, self.tick);
        if now_ticks <= self.cursor {
            return;
        }
        // Each slot needs processing at most once per advance, however far
        // the cursor is behind.
        let slot_count = self.slots.len() as u64;
        let steps = (now_ticks - self.cursor).min(slot_count);
        for step in 0..steps {
            let index = ((self.cursor + step) % slot_count) as usize;
            let mut slot = std::mem::take(&mut self.slots[index]);
            slot.retain(|entry| {
                let state = &mut self.generations[entry.host][entry.kind as usize];
                if state.generation != entry.generation {
                    return false; // superseded or cancelled
                }
                if entry.at <= now {
                    due.push(DueTimer {
                        host: entry.host,
                        kind: entry.kind,
                        at: entry.at,
                        generation: entry.generation,
                    });
                    state.live = false;
                    self.armed -= 1;
                    false
                } else {
                    true // a later rotation of this slot
                }
            });
            self.slots[index] = slot;
        }
        self.cursor = now_ticks;
    }

    /// Walks the wheel tick by tick up to (and including) `limit`'s tick and
    /// stops at the **first** tick with due timers, collecting exactly that
    /// tick's firings into `due`. Returns `true` if anything fired.
    ///
    /// This is the simulator's discipline: between two event-heap
    /// dispatches, virtual time must not jump past a deadline, and each
    /// collected [`DueTimer::at`] is the exact instant the caller advances
    /// its clock to. Empty stretches cost one slot probe per tick, and after
    /// a full silent rotation the walk leaps directly to the earliest live
    /// deadline, so idle hours of virtual time cost one `O(entries)` scan.
    pub fn advance_next(&mut self, limit: I, due: &mut Vec<DueTimer<I>>) -> bool {
        let limit_tick = limit.ticks_since(self.epoch, self.tick);
        let slot_count = self.slots.len() as u64;
        let mut silent_ticks = 0u64;
        while self.cursor <= limit_tick {
            if self.armed == 0 {
                self.cursor = limit_tick + 1;
                return false;
            }
            if silent_ticks >= slot_count {
                // A full rotation of empty slots: every live entry is in a
                // later rotation. Leap to the earliest one.
                match self.next_live_tick() {
                    Some(tick) if tick <= limit_tick => self.cursor = tick,
                    _ => {
                        self.cursor = limit_tick + 1;
                        return false;
                    }
                }
                silent_ticks = 0;
            }
            let index = (self.cursor % slot_count) as usize;
            if self.slots[index].is_empty() {
                silent_ticks += 1;
                self.cursor += 1;
                continue;
            }
            let cursor = self.cursor;
            let epoch = self.epoch;
            let tick = self.tick;
            let mut fired = false;
            // A same-tick entry whose exact deadline lies beyond `limit`
            // (possible only when deadlines are finer than the tick): the
            // cursor must not pass its tick until it fires.
            let mut blocked = false;
            let mut slot = std::mem::take(&mut self.slots[index]);
            slot.retain(|entry| {
                let state = &mut self.generations[entry.host][entry.kind as usize];
                if state.generation != entry.generation {
                    return false; // superseded or cancelled
                }
                if entry.at.ticks_since(epoch, tick).max(cursor) != cursor {
                    return true; // a later rotation of this slot
                }
                if entry.at <= limit {
                    due.push(DueTimer {
                        host: entry.host,
                        kind: entry.kind,
                        at: entry.at,
                        generation: entry.generation,
                    });
                    state.live = false;
                    self.armed -= 1;
                    fired = true;
                    false
                } else {
                    blocked = true;
                    true
                }
            });
            self.slots[index] = slot;
            if !blocked {
                self.cursor += 1;
            }
            if fired {
                return true;
            }
            if blocked {
                return false;
            }
            silent_ticks += 1;
        }
        false
    }

    /// Earliest tick holding a live entry, or `None` if nothing is armed.
    /// `O(entries)`; used by [`Self::advance_next`] to leap idle stretches.
    fn next_live_tick(&self) -> Option<u64> {
        let cursor = self.cursor;
        self.slots
            .iter()
            .flatten()
            .filter(|entry| {
                let state = &self.generations[entry.host][entry.kind as usize];
                state.generation == entry.generation
            })
            .map(|entry| entry.at.ticks_since(self.epoch, self.tick).max(cursor))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflasks_types::Duration as SimDuration;
    use std::time::{Duration, Instant};

    const TICK: Duration = Duration::from_millis(10);

    fn wheel() -> (TimerWheel<Instant>, Instant) {
        let epoch = Instant::now();
        (TimerWheel::new(8, TICK, epoch), epoch)
    }

    fn advance_at(wheel: &mut TimerWheel<Instant>, at: Instant) -> Vec<(usize, TimerKind)> {
        let mut due = Vec::new();
        wheel.advance(at, &mut due);
        due.into_iter().map(|t| (t.host, t.kind)).collect()
    }

    #[test]
    fn timers_fire_once_their_tick_elapses() {
        let (mut wheel, epoch) = wheel();
        wheel.arm(3, TimerKind::PssShuffle, epoch + TICK * 2);
        assert_eq!(wheel.armed(), 1);
        // Tick 2 has not fully elapsed yet.
        assert!(advance_at(&mut wheel, epoch + TICK * 2).is_empty());
        assert_eq!(
            advance_at(&mut wheel, epoch + TICK * 3),
            vec![(3, TimerKind::PssShuffle)]
        );
        assert_eq!(wheel.armed(), 0);
        // Nothing fires twice.
        assert!(advance_at(&mut wheel, epoch + TICK * 20).is_empty());
    }

    #[test]
    fn rearming_supersedes_the_pending_deadline() {
        let (mut wheel, epoch) = wheel();
        wheel.arm(1, TimerKind::AntiEntropy, epoch + TICK * 2);
        wheel.arm(1, TimerKind::AntiEntropy, epoch + TICK * 5);
        assert_eq!(wheel.armed(), 1, "a re-arm replaces, not adds");
        assert!(advance_at(&mut wheel, epoch + TICK * 4).is_empty());
        assert_eq!(
            advance_at(&mut wheel, epoch + TICK * 6),
            vec![(1, TimerKind::AntiEntropy)]
        );
    }

    #[test]
    fn far_deadlines_survive_whole_rotations() {
        let (mut wheel, epoch) = wheel();
        // 8 slots: a deadline 19 ticks out shares a slot with tick 3.
        wheel.arm(2, TimerKind::SliceGossip, epoch + TICK * 19);
        assert!(advance_at(&mut wheel, epoch + TICK * 10).is_empty());
        assert!(advance_at(&mut wheel, epoch + TICK * 18).is_empty());
        assert_eq!(
            advance_at(&mut wheel, epoch + TICK * 21),
            vec![(2, TimerKind::SliceGossip)]
        );
    }

    #[test]
    fn cancel_kills_the_pending_deadline() {
        let (mut wheel, epoch) = wheel();
        wheel.arm(4, TimerKind::PssShuffle, epoch + TICK * 2);
        wheel.cancel(4, TimerKind::PssShuffle);
        assert_eq!(wheel.armed(), 0);
        assert!(advance_at(&mut wheel, epoch + TICK * 10).is_empty());
        // The pair is still armable afterwards.
        wheel.arm(4, TimerKind::PssShuffle, epoch + TICK * 12);
        assert_eq!(
            advance_at(&mut wheel, epoch + TICK * 13),
            vec![(4, TimerKind::PssShuffle)]
        );
    }

    #[test]
    fn past_deadlines_fire_on_the_next_advance() {
        let (mut wheel, epoch) = wheel();
        let _ = advance_at(&mut wheel, epoch + TICK * 6);
        // Armed "in the past" relative to the cursor: fires next advance
        // instead of waiting a full rotation.
        wheel.arm(5, TimerKind::AntiEntropy, epoch + TICK * 2);
        assert_eq!(
            advance_at(&mut wheel, epoch + TICK * 7),
            vec![(5, TimerKind::AntiEntropy)]
        );
    }

    #[test]
    fn distinct_hosts_and_kinds_are_independent() {
        let (mut wheel, epoch) = wheel();
        wheel.arm(1, TimerKind::PssShuffle, epoch + TICK * 2);
        wheel.arm(1, TimerKind::SliceGossip, epoch + TICK * 2);
        wheel.arm(2, TimerKind::PssShuffle, epoch + TICK * 2);
        assert_eq!(wheel.armed(), 3);
        let mut due = advance_at(&mut wheel, epoch + TICK * 3);
        due.sort_by_key(|&(host, kind)| (host, kind as u8));
        assert_eq!(due.len(), 3);
        assert_eq!(due[2], (2, TimerKind::PssShuffle));
    }

    // ------------------------------------------------------------------
    // Virtual-time (SimTime) coverage: the simulator's walk discipline.
    // ------------------------------------------------------------------

    const SIM_TICK: SimDuration = SimDuration::from_millis(1);

    fn sim_wheel(slots: usize) -> TimerWheel<SimTime> {
        TimerWheel::new(slots, SIM_TICK, SimTime::ZERO)
    }

    fn at_ms(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn walk(wheel: &mut TimerWheel<SimTime>, limit: SimTime) -> Vec<DueTimer<SimTime>> {
        let mut due = Vec::new();
        wheel.advance_next(limit, &mut due);
        due
    }

    #[test]
    fn walk_stops_at_the_first_due_tick() {
        let mut wheel = sim_wheel(16);
        wheel.arm(1, TimerKind::PssShuffle, at_ms(5));
        wheel.arm(2, TimerKind::PssShuffle, at_ms(9));
        let first = walk(&mut wheel, at_ms(100));
        assert_eq!(first.len(), 1);
        assert_eq!((first[0].host, first[0].at), (1, at_ms(5)));
        // The 9 ms deadline is untouched until the next walk.
        assert_eq!(wheel.armed(), 1);
        let second = walk(&mut wheel, at_ms(100));
        assert_eq!((second[0].host, second[0].at), (2, at_ms(9)));
        assert!(walk(&mut wheel, at_ms(100)).is_empty());
    }

    #[test]
    fn walk_fires_exactly_at_the_limit_but_not_beyond() {
        let mut wheel = sim_wheel(16);
        wheel.arm(1, TimerKind::SliceGossip, at_ms(10));
        assert!(walk(&mut wheel, at_ms(9)).is_empty());
        let due = walk(&mut wheel, at_ms(10));
        assert_eq!(due.len(), 1, "a deadline equal to the limit is due");
        assert_eq!(due[0].at, at_ms(10));
    }

    #[test]
    fn walk_collects_simultaneous_deadlines_in_arming_order() {
        let mut wheel = sim_wheel(8);
        wheel.arm(7, TimerKind::AntiEntropy, at_ms(4));
        wheel.arm(3, TimerKind::PssShuffle, at_ms(4));
        let due = walk(&mut wheel, at_ms(50));
        assert_eq!(
            due.iter().map(|t| t.host).collect::<Vec<_>>(),
            vec![7, 3],
            "same-tick firings keep their arming order"
        );
    }

    #[test]
    fn walk_leaps_idle_stretches_to_far_deadlines() {
        let mut wheel = sim_wheel(8);
        // Sim timescale: an anti-entropy chain hours of virtual time out,
        // thousands of rotations of an 8-slot wheel away.
        let far = 3 * 60 * 60 * 1_000;
        wheel.arm(0, TimerKind::AntiEntropy, at_ms(far));
        assert!(walk(&mut wheel, at_ms(far - 1)).is_empty());
        let due = walk(&mut wheel, at_ms(far + 5));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].at, at_ms(far), "fires at its exact deadline");
    }

    #[test]
    fn walk_handles_long_delay_cascades_across_rotations() {
        let mut wheel = sim_wheel(8);
        // Three chains whose periods straddle rotation boundaries (8 ticks):
        // every firing must surface exactly once, at its exact time.
        let mut expected = Vec::new();
        for (host, period) in [(0u64, 3u64), (1, 11), (2, 26)] {
            wheel.arm(host as usize, TimerKind::PssShuffle, at_ms(period));
            expected.push((host as usize, period));
        }
        let mut fired = Vec::new();
        let limit = at_ms(200);
        loop {
            let due = walk(&mut wheel, limit);
            if due.is_empty() {
                break;
            }
            for t in due {
                fired.push((t.host, t.at.as_millis()));
                // Re-arm one period later, like a protocol chain.
                let period = [3u64, 11, 26][t.host];
                wheel.arm(
                    t.host,
                    TimerKind::PssShuffle,
                    at_ms(t.at.as_millis() + period),
                );
            }
        }
        for (host, period) in expected {
            let times: Vec<u64> = fired
                .iter()
                .filter(|(h, _)| *h == host)
                .map(|&(_, at)| at)
                .collect();
            let want: Vec<u64> = (1..)
                .map(|i| i * period)
                .take_while(|&t| t <= 200)
                .collect();
            assert_eq!(times, want, "chain with period {period} fires every period");
        }
    }

    #[test]
    fn supersede_invalidates_the_pending_deadline_and_stamps_currency() {
        let mut wheel = sim_wheel(8);
        wheel.arm(5, TimerKind::PssShuffle, at_ms(10));
        let stamp = wheel.supersede(5, TimerKind::PssShuffle);
        assert_eq!(wheel.armed(), 0);
        assert!(wheel.is_current(5, TimerKind::PssShuffle, stamp));
        // The superseded wheel deadline never fires.
        assert!(walk(&mut wheel, at_ms(100)).is_empty());
        // A later arm invalidates the stamp — the out-of-band event is stale.
        wheel.arm(5, TimerKind::PssShuffle, at_ms(200));
        assert!(!wheel.is_current(5, TimerKind::PssShuffle, stamp));
    }

    #[test]
    fn fired_deadlines_stay_current_until_rearmed() {
        let mut wheel = sim_wheel(8);
        wheel.arm(1, TimerKind::AntiEntropy, at_ms(3));
        let due = walk(&mut wheel, at_ms(10));
        assert_eq!(due.len(), 1);
        // A collected timer is dispatchable: its stamp is still current.
        assert!(wheel.is_current(due[0].host, due[0].kind, due[0].generation));
        wheel.arm(1, TimerKind::AntiEntropy, at_ms(20));
        assert!(!wheel.is_current(due[0].host, due[0].kind, due[0].generation));
    }

    #[test]
    fn cursor_time_tracks_processed_ticks() {
        let mut wheel = sim_wheel(8);
        assert_eq!(wheel.cursor, 0);
        assert!(walk(&mut wheel, at_ms(41)).is_empty());
        // One-millisecond ticks: ticks 0..=41 have been processed.
        assert_eq!(wheel.cursor, 42);
    }
}
