//! With no tracer attached, the steady-state event loop makes zero heap
//! allocations per event: the queue reuses its heap and slab capacity and the
//! lazy `emit_with` closure never runs. Verified with a counting global
//! allocator rather than inspection.

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

/// Ping-pong: every event schedules the next, forever, so one event is
/// pending at a time and its slab slot is freed and reused on every step.
struct PingPong;

impl Simulation for PingPong {
    type Event = u32;

    fn handle(&mut self, _now: Cycles, ev: u32, queue: &mut EventQueue<u32>) {
        queue.schedule_after(Cycles(7), ev.wrapping_add(1));
    }
}

#[test]
fn disabled_tracer_event_loop_allocates_nothing() {
    let mut sim = PingPong;
    let mut eng: Engine<PingPong> = Engine::new();
    eng.queue_mut().schedule_at(Cycles::ZERO, 0);
    // Warm up so the queue's heap, slab and free list have allocated the
    // capacity they keep for the rest of the run.
    eng.run_until(&mut sim, Cycles(100_000));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = eng.run_until(&mut sim, Cycles(1_000_000));
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(out.events > 100_000, "expected a long steady-state run");
    assert_eq!(
        after - before,
        0,
        "steady-state event loop allocated {} times over {} events",
        after - before,
        out.events
    );
}
