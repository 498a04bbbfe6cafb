//! With about 300 events pending at widely spread times, the steady-state
//! event loop still makes zero heap allocations: the key heap, the event
//! slab and its free list keep the capacity they reached during warm-up.
//! This is its own test binary because the counting allocator is global to
//! the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use proteus::{Cycles, Engine, EventQueue, Simulation};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: pure pass-through to the system allocator; the counter is a
// relaxed atomic with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Pending events start at 300 and random-walk between 200 and 300: each
/// event schedules zero, one or two successors up to 50 000 cycles out, so
/// the free list grows and drains and slots are reused in shuffled order.
struct Swarm {
    rng: u64,
}

impl Swarm {
    /// 64-bit LCG (Knuth's MMIX constants); the high bits are well mixed.
    fn next(&mut self) -> u64 {
        self.rng = self
            .rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.rng >> 33
    }
}

impl Simulation for Swarm {
    type Event = u64;

    fn handle(&mut self, _now: Cycles, ev: u64, queue: &mut EventQueue<u64>) {
        let depth = queue.len();
        let successors = match self.next() % 3 {
            0 if depth >= 200 => 0,
            1 if depth < 299 => 2,
            _ => 1,
        };
        for _ in 0..successors {
            let delay = 1 + self.next() % 50_000;
            queue.schedule_after(Cycles(delay), ev.wrapping_add(1));
        }
    }
}

#[test]
fn deep_queue_event_loop_allocates_nothing() {
    let mut sim = Swarm { rng: 1 };
    let mut eng: Engine<Swarm> = Engine::new();
    for i in 0..300 {
        let at = Cycles(sim.next() % 50_000);
        eng.queue_mut().schedule_at(at, i);
    }
    // Warm up until the depth has swept its whole range, so the slab and
    // the free list have reached their final capacity.
    eng.run_until(&mut sim, Cycles(5_000_000));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = eng.run_until(&mut sim, Cycles(50_000_000));
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(out.events > 100_000, "expected a long steady-state run");
    assert!(
        (200..=300).contains(&eng.queue_mut().len()),
        "queue depth left its 200-300 band"
    );
    assert_eq!(
        after - before,
        0,
        "deep-queue event loop allocated {} times over {} events",
        after - before,
        out.events
    );
}
