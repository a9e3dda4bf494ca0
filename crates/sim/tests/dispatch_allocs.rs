//! Allocation floor of the scheduler: once warmed, a world whose actors
//! send and set timers allocates nothing per dispatch beyond what the
//! actors themselves allocate. The world reuses one effect buffer across
//! dispatches, so requesting an effect costs no bookkeeping allocation.
//!
//! Counted by a thread-local allocator (allocations and reallocations).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use mage_sim::{Actor, Context, LinkSpec, Network, NodeId, SimDuration, World};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// bookkeeping only touches a const-initialised thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bounces every message back to its peer and arms a timer for each one;
/// allocates nothing itself (a `Bytes` clone shares its buffer).
struct Bounce {
    peer: NodeId,
}

impl Actor for Bounce {
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: Bytes) {
        ctx.send(self.peer, "ping", payload);
        ctx.set_timer(SimDuration::from_micros(50), 1);
        ctx.count("bounces");
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_>, _tag: u64) {}
}

#[test]
fn warmed_dispatch_allocates_nothing_beyond_the_actor() {
    let mut world = World::with_network(1, Network::new(LinkSpec::ethernet_10mbps()));
    let a = world.add_node(
        "a",
        Bounce {
            peer: NodeId::from_raw(1),
        },
    );
    let _b = world.add_node("b", Bounce { peer: a });
    world.inject(a, "ping", Bytes::from(vec![0u8; 64]));
    for _ in 0..1_000 {
        assert!(world.step(), "ping-pong went idle");
    }
    let before = ALLOCS.with(Cell::get);
    for _ in 0..10_000 {
        assert!(world.step(), "ping-pong went idle");
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(allocs, 0, "10k warmed dispatches allocated {allocs} times");
}
