//! Differential property tests: the key-heap-over-slab `EventQueue` must be
//! observationally identical to a plain `BinaryHeap` of whole events — same
//! `(time, seq)` pop order (including same-cycle FIFO ties), same clock, same
//! horizon clamping — under arbitrary schedule/pop/advance interleavings,
//! including deep queues whose freed slab slots are reused many times over.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use proteus::event::EventQueue;
use proteus::Cycles;

/// The pre-optimization queue, reproduced verbatim as the reference model:
/// one max-heap with inverted `(time, seq)` ordering, `pop` advances the
/// clock, `pop_before` is the peek-then-pop pair the engine used to do.
struct RefQueue<E> {
    heap: BinaryHeap<RefScheduled<E>>,
    seq: u64,
    now: Cycles,
}

struct RefScheduled<E> {
    at: Cycles,
    seq: u64,
    event: E,
}

impl<E> PartialEq for RefScheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for RefScheduled<E> {}
impl<E> PartialOrd for RefScheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for RefScheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<E> RefQueue<E> {
    fn new() -> Self {
        RefQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: Cycles::ZERO,
        }
    }

    fn schedule_at(&mut self, at: Cycles, event: E) {
        let at = at.max(self.now);
        self.heap.push(RefScheduled {
            at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(Cycles, E)> {
        let s = self.heap.pop()?;
        self.now = s.at;
        Some((s.at, s.event))
    }

    fn pop_before(&mut self, horizon: Cycles) -> Option<(Cycles, E)> {
        if self.peek_time()? > horizon {
            return None;
        }
        self.pop()
    }

    fn peek_time(&self) -> Option<Cycles> {
        self.heap.peek().map(|s| s.at)
    }

    fn advance_to(&mut self, t: Cycles) {
        self.now = self.now.max(t);
    }
}

/// One step of the interleaving tape. Raw `(tag, value)` pairs are decoded
/// here so the generated inputs print readably on failure.
#[derive(Debug)]
enum Op {
    /// Schedule at `now + delta`. Deltas span thousands of cycles so near
    /// and far events interleave in the heap; small deltas (and 0) produce
    /// same-cycle ties.
    Schedule(u64),
    /// Pop unconditionally.
    Pop,
    /// Pop only if the next event is within `now + slack`.
    PopBefore(u64),
    /// Advance the clock toward `now + delta`, clamped to the next pending
    /// event (the legality condition `advance_to` asserts).
    Advance(u64),
    /// Compare `peek_time` without mutating.
    Peek,
}

fn decode(tape: &[(u8, u64)]) -> Vec<Op> {
    tape.iter().map(|&(tag, v)| decode_one(tag, v)).collect()
}

fn decode_one(tag: u8, v: u64) -> Op {
    match tag % 8 {
        // Weight scheduling and popping heaviest; bias deltas toward ties.
        0 | 1 => Op::Schedule(v % 12_288),
        2 => Op::Schedule(v % 3),
        3 | 4 => Op::Pop,
        5 => Op::PopBefore(v % 9_000),
        6 => Op::Advance(v % 5_000),
        _ => Op::Peek,
    }
}

/// Run one op against both queues and check every observable agrees.
fn step(
    op: &Op,
    q: &mut EventQueue<usize>,
    r: &mut RefQueue<usize>,
    next_id: &mut usize,
) -> Result<(), TestCaseError> {
    match *op {
        Op::Schedule(delta) => {
            let at = r.now + Cycles(delta);
            q.schedule_at(at, *next_id);
            r.schedule_at(at, *next_id);
            *next_id += 1;
        }
        Op::Pop => {
            prop_assert_eq!(q.pop(), r.pop(), "pop diverged");
        }
        Op::PopBefore(slack) => {
            let horizon = r.now + Cycles(slack);
            prop_assert_eq!(
                q.pop_before(horizon),
                r.pop_before(horizon),
                "pop_before({:?}) diverged",
                horizon
            );
        }
        Op::Advance(delta) => {
            let mut t = r.now + Cycles(delta);
            if let Some(next) = r.peek_time() {
                t = t.min(next);
            }
            q.advance_to(t);
            r.advance_to(t);
        }
        Op::Peek => {
            prop_assert_eq!(q.peek_time(), r.peek_time(), "peek_time diverged");
        }
    }
    prop_assert_eq!(q.now(), r.now, "clock diverged");
    prop_assert_eq!(q.len(), r.heap.len(), "len diverged");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn two_tier_queue_matches_binary_heap_reference(
        tape in proptest::collection::vec((0u8..8, 0u64..1 << 32), 1..400)
    ) {
        let ops = decode(&tape);
        let mut q = EventQueue::new();
        let mut r = RefQueue::new();
        let mut next_id = 0usize;
        for op in &ops {
            step(op, &mut q, &mut r, &mut next_id)?;
        }
        // Drain whatever is left: full residual order must agree too.
        loop {
            let (a, b) = (q.pop(), r.pop());
            prop_assert_eq!(a, b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn same_cycle_bursts_keep_fifo_order_across_tiers(
        // Bursts of same-time events at offsets straddling the window edge.
        offsets in proptest::collection::vec(0u64..10_000, 1..40),
        burst in 1usize..20,
    ) {
        let mut q = EventQueue::new();
        let mut r = RefQueue::new();
        let mut id = 0usize;
        for &off in &offsets {
            for _ in 0..burst {
                q.schedule_at(Cycles(off), id);
                r.schedule_at(Cycles(off), id);
                id += 1;
            }
        }
        loop {
            let (a, b) = (q.pop(), r.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn horizon_never_admits_late_events_and_never_loses_early_ones(
        times in proptest::collection::vec(0u64..20_000, 1..100),
        horizon in 0u64..20_000,
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(Cycles(t), i);
        }
        let within = times.iter().filter(|&&t| t <= horizon).count();
        let mut got = 0usize;
        while let Some((at, _)) = q.pop_before(Cycles(horizon)) {
            prop_assert!(at.get() <= horizon, "popped past horizon");
            got += 1;
        }
        prop_assert_eq!(got, within, "horizon drain lost or invented events");
        prop_assert_eq!(q.len(), times.len() - within);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deep_queue_slot_reuse_matches_binary_heap_reference(
        prefill in proptest::collection::vec(0u64..50_000, 250..251),
        tape in proptest::collection::vec((0u8..8, 0u64..1 << 32), 500..2_000)
    ) {
        // Hold 200-300 events pending (the benchmark's B-tree fault runs
        // peak near 260), so every pop frees a slot that a later schedule
        // reuses while hundreds of older keys are still in the heap.
        let mut q = EventQueue::new();
        let mut r = RefQueue::new();
        let mut next_id = 0usize;
        for &t in &prefill {
            step(&Op::Schedule(t), &mut q, &mut r, &mut next_id)?;
        }
        for &(tag, v) in &tape {
            let op = match decode_one(tag, v) {
                Op::Pop | Op::PopBefore(_) if r.heap.len() <= 200 => Op::Schedule(v % 12_288),
                Op::Schedule(_) if r.heap.len() >= 300 => Op::Pop,
                op => op,
            };
            step(&op, &mut q, &mut r, &mut next_id)?;
        }
        loop {
            let (a, b) = (q.pop(), r.pop());
            prop_assert_eq!(a, b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
    }
}
