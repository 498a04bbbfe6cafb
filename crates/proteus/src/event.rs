//! Deterministic discrete-event queue.
//!
//! Events are ordered by `(time, sequence-number)`: two events scheduled for
//! the same cycle pop in the order they were scheduled. This makes entire
//! simulations bit-for-bit reproducible, which the experiment harness and the
//! property tests rely on.
//!
//! The queue is a binary heap of 16-byte keys over a slab of events. A key
//! holds the event's time and a `tie` word: the schedule's sequence number in
//! the high bits and the event's slab slot in the low `SLOT_BITS` bits. The
//! heap moves only keys, never the (much larger) events. Sequence numbers are
//! unique, so the slot bits never decide an order and ties stay FIFO however
//! freed slots are reused.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Cycles;

/// Low bits of a key's `tie` that name the event's slab slot.
const SLOT_BITS: u32 = 24;
/// Most events that may be pending at once.
const MAX_PENDING: usize = 1 << SLOT_BITS;
/// Most schedules per queue: the sequence number fills the rest of `tie`.
const MAX_SEQ: u64 = 1 << (64 - SLOT_BITS);

/// Heap key: `(at, seq)` order, since `seq` sits above the slot in `tie`.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: Cycles,
    tie: u64,
}

/// A time-ordered queue of simulation events.
pub struct EventQueue<E> {
    /// Min-heap of the pending events' keys.
    heap: BinaryHeap<Reverse<Key>>,
    /// Pending events by slot; `None` marks a free slot.
    events: Vec<Option<E>>,
    /// Free slots of `events`, reused before the slab grows.
    free: Vec<u32>,
    seq: u64,
    now: Cycles,
    peak: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            events: Vec::new(),
            free: Vec::new(),
            seq: 0,
            now: Cycles::ZERO,
            peak: 0,
        }
    }

    /// The current simulated time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The deepest the queue has ever been (pending events), for profiling.
    #[inline]
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; the queue
    /// clamps to `now` so time never runs backwards, and debug builds assert.
    /// Panics past `2^24` pending events or `2^40` schedules in all builds.
    pub fn schedule_at(&mut self, at: Cycles, event: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at:?} < {:?}",
            self.now
        );
        let at = at.max(self.now);
        assert!(
            self.seq < MAX_SEQ,
            "event queue exhausted its 2^40 sequence numbers"
        );
        let slot = match self.free.pop() {
            Some(slot) => {
                self.events[slot as usize] = Some(event);
                slot
            }
            None => {
                assert!(
                    self.events.len() < MAX_PENDING,
                    "event queue holds 2^24 pending events"
                );
                self.events.push(Some(event));
                (self.events.len() - 1) as u32
            }
        };
        let tie = (self.seq << SLOT_BITS) | u64::from(slot);
        self.heap.push(Reverse(Key { at, tie }));
        self.seq += 1;
        self.peak = self.peak.max(self.heap.len());
    }

    /// Schedule `event` at `now + delay`.
    pub fn schedule_after(&mut self, delay: Cycles, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pop the earliest event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        self.pop_before(Cycles::MAX)
    }

    /// Pop the earliest event if its timestamp is at or before `horizon`,
    /// advancing `now` to it. One call replaces a `peek_time` + `pop` pair
    /// in the event loop's hot path.
    pub fn pop_before(&mut self, horizon: Cycles) -> Option<(Cycles, E)> {
        let Reverse(key) = *self.heap.peek()?;
        if key.at > horizon {
            return None;
        }
        self.heap.pop();
        let slot = (key.tie & (MAX_PENDING as u64 - 1)) as u32;
        let event = self.events[slot as usize]
            .take()
            .expect("pending key names an empty slot");
        self.free.push(slot);
        self.now = key.at;
        Some((key.at, event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Cycles> {
        self.heap.peek().map(|Reverse(key)| key.at)
    }

    /// Advance the clock to `t` without processing events (used when a run
    /// stops at a time horizon: the simulation's notion of "now" is the
    /// horizon, not the last event). Must not skip past pending events.
    pub fn advance_to(&mut self, t: Cycles) {
        debug_assert!(t >= self.now, "clock cannot run backwards");
        if let Some(next) = self.peek_time() {
            debug_assert!(t <= next, "advance_to would skip pending events");
        }
        self.now = self.now.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles(30), "c");
        q.schedule_at(Cycles(10), "a");
        q.schedule_at(Cycles(20), "b");
        assert_eq!(q.pop(), Some((Cycles(10), "a")));
        assert_eq!(q.pop(), Some((Cycles(20), "b")));
        assert_eq!(q.pop(), Some((Cycles(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(Cycles(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycles(5), i)));
        }
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles(42), ());
        assert_eq!(q.now(), Cycles::ZERO);
        q.pop();
        assert_eq!(q.now(), Cycles(42));
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles(10), "first");
        q.pop();
        q.schedule_after(Cycles(5), "second");
        assert_eq!(q.pop(), Some((Cycles(15), "second")));
    }

    #[test]
    fn peek_does_not_advance_time() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles(7), ());
        assert_eq!(q.peek_time(), Some(Cycles(7)));
        assert_eq!(q.now(), Cycles::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_asserts_in_debug() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles(10), ());
        q.pop();
        q.schedule_at(Cycles(5), ());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles(1), 1u32);
        q.schedule_at(Cycles(3), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule_at(Cycles(2), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn far_future_events_overflow_to_heap_and_come_back() {
        // A far-future event scheduled first still pops after a near one.
        let mut q = EventQueue::new();
        let far = Cycles(40_963);
        q.schedule_at(far, "far");
        q.schedule_at(Cycles(1), "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Cycles(1)));
        assert_eq!(q.pop(), Some((Cycles(1), "near")));
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.pop(), Some((far, "far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_pop_fifo_across_window_advance() {
        // Same-cycle FIFO order holds for events scheduled between pops at
        // that cycle, not only for one batch scheduled up front.
        let t = Cycles(12_305);
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        assert_eq!(q.pop(), Some((t, 0)));
        for i in 10..20 {
            q.schedule_at(t, i);
        }
        for i in 1..20 {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn window_boundary_is_exclusive() {
        // Adjacent cycles scheduled out of order pop in time order.
        let mut q = EventQueue::new();
        q.schedule_at(Cycles(4096), "later");
        q.schedule_at(Cycles(4095), "earlier");
        assert_eq!(q.pop(), Some((Cycles(4095), "earlier")));
        assert_eq!(q.pop(), Some((Cycles(4096), "later")));
    }

    #[test]
    fn pop_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycles(10), "a");
        q.schedule_at(Cycles(20), "b");
        assert_eq!(q.pop_before(Cycles(5)), None);
        assert_eq!(q.now(), Cycles::ZERO);
        assert_eq!(q.pop_before(Cycles(10)), Some((Cycles(10), "a")));
        assert_eq!(q.pop_before(Cycles(15)), None);
        assert_eq!(q.pop_before(Cycles(20)), Some((Cycles(20), "b")));
        assert_eq!(q.pop_before(Cycles::MAX), None);
    }

    #[test]
    fn pop_before_does_not_move_window_past_horizon() {
        // A refused pop must leave the queue observably unchanged.
        let far = Cycles(20_480);
        let mut q = EventQueue::new();
        q.schedule_at(far, ());
        assert_eq!(q.pop_before(Cycles(100)), None);
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.len(), 1);
        assert_eq!(q.now(), Cycles::ZERO);
        assert_eq!(q.pop_before(far), Some((far, ())));
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        for i in 0..5 {
            q.schedule_at(Cycles(i), ());
        }
        q.pop();
        q.pop();
        q.schedule_at(Cycles(9), ());
        assert_eq!(q.peak_len(), 5);
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn long_sparse_run_crosses_many_windows() {
        // One event at a time, each far after the last, stays in order.
        let mut q = EventQueue::new();
        let step = Cycles(2_049);
        q.schedule_at(Cycles(1), 0u64);
        let mut popped = 0u64;
        while let Some((t, i)) = q.pop() {
            assert_eq!(i, popped);
            assert_eq!(q.now(), t);
            popped += 1;
            if popped < 50 {
                q.schedule_after(step, popped);
            }
        }
        assert_eq!(popped, 50);
    }

    #[test]
    fn freed_slots_never_reorder_ties() {
        // Fill slots 0..8 at cycle 100, then free the low ones by popping
        // the early events. The same-cycle events scheduled next reuse those
        // low slots, yet must pop after every earlier event at that cycle.
        let t = Cycles(100);
        let mut q = EventQueue::new();
        for i in 0..4 {
            q.schedule_at(Cycles(i), i);
        }
        for i in 4..8 {
            q.schedule_at(t, i);
        }
        for i in 0..4 {
            assert_eq!(q.pop(), Some((Cycles(i), i)));
        }
        for i in 8..12 {
            q.schedule_at(t, i);
        }
        assert_eq!(q.events.len(), 8, "later events must reuse freed slots");
        for i in 4..12 {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "exhausted its 2^40 sequence numbers")]
    fn sequence_cap_is_enforced() {
        let mut q = EventQueue::new();
        q.seq = MAX_SEQ - 1;
        q.schedule_at(Cycles(1), ());
        q.schedule_at(Cycles(1), ());
    }

    #[test]
    #[should_panic(expected = "holds 2^24 pending events")]
    fn pending_cap_is_enforced() {
        // Unit events keep the full slab at 16 MiB, allocated once.
        let mut q: EventQueue<()> = EventQueue::new();
        q.events = Vec::with_capacity(MAX_PENDING);
        q.events.resize(MAX_PENDING - 1, Some(()));
        q.schedule_at(Cycles(1), ());
        q.schedule_at(Cycles(1), ());
    }
}
