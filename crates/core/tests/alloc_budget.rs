//! Allocation budget of the session call path, counted by a thread-local
//! allocator (allocations and reallocations, like the benchmark's
//! counter).
//!
//! A warmed `Session::call` may cost at most three heap allocations per
//! op more than a raw `mage_rmi::drive_call` round trip carrying the
//! same arguments: everything above the RMI floor is session and engine
//! bookkeeping, and it must stay small. The blocking forms add nothing
//! on top of the one invoke path: `call_async(..)?.wait()` costs exactly
//! what `call` costs, and `call_handle` no more. And because every per-op
//! table hashes with a fixed hasher, two same-seed runs allocate exactly
//! the same number of times.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mage_core::attribute::Rpc;
use mage_core::workload_support::{methods, test_object_class};
use mage_core::{Durability, ObjectHandle, ObjectSpec, Pending, Runtime};
use mage_rmi::{client_endpoint, drive_call, server_endpoint, Config, ObjectEnv};
use mage_sim::{LinkSpec, Network, World};

/// Counts this thread's allocations and reallocations.
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

/// Allocations `f` makes on this thread.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const WARMUP: usize = 200;
const MEASURED: usize = 1_000;
const BUDGET_OVER_RMI: f64 = 3.0;

/// Per-op allocations of raw RMI round trips with `inc`'s (unit)
/// arguments, marshalled per call as a session call does.
fn raw_rmi_allocs_per_op() -> f64 {
    let mut world = World::with_network(1, Network::new(LinkSpec::ethernet_10mbps()));
    let client = world.add_node("client", client_endpoint(Config::default()));
    let server = world.add_node(
        "server",
        server_endpoint(
            Config::default(),
            "echo",
            Box::new(|_m: &str, args: &[u8], _e: &mut ObjectEnv<'_>| Ok(args.to_vec())),
        ),
    );
    let call = |world: &mut World| {
        let args = mage_codec::to_bytes(&()).unwrap();
        drive_call(world, client, server, "echo", "echo", args)
            .unwrap()
            .unwrap();
    };
    for _ in 0..WARMUP {
        call(&mut world);
    }
    let n = allocs_during(|| {
        for _ in 0..MEASURED {
            call(&mut world);
        }
    });
    n as f64 / MEASURED as f64
}

/// A client namespace with an RPC stub to a counter on a server.
fn rig(seed: u64) -> (Runtime, mage_core::Session, mage_core::Stub) {
    let mut rt = Runtime::builder()
        .seed(seed)
        .nodes(["c", "s"])
        .class(test_object_class())
        .build();
    rt.deploy_class("TestObject", "s").unwrap();
    rt.session("s")
        .unwrap()
        .create(ObjectSpec::new("p").class("TestObject"))
        .unwrap();
    let c = rt.session("c").unwrap();
    let stub = c.bind(&Rpc::new("TestObject", "p", "s")).unwrap();
    (rt, c, stub)
}

#[test]
fn session_call_stays_within_three_allocs_of_raw_rmi() {
    let rmi = raw_rmi_allocs_per_op();
    let (_rt, c, stub) = rig(1);
    for _ in 0..WARMUP {
        c.call(&stub, methods::INC, &()).unwrap();
    }
    let n = allocs_during(|| {
        for _ in 0..MEASURED {
            c.call(&stub, methods::INC, &()).unwrap();
        }
    });
    let session = n as f64 / MEASURED as f64;
    assert!(
        session <= rmi + BUDGET_OVER_RMI,
        "session.call costs {session} allocs/op, raw RMI {rmi}: more than {BUDGET_OVER_RMI} over"
    );
}

/// Allocations per op of `op` over the measured window.
fn allocs_per_op(mut op: impl FnMut()) -> f64 {
    let n = allocs_during(|| {
        for _ in 0..MEASURED {
            op();
        }
    });
    n as f64 / MEASURED as f64
}

#[test]
fn blocking_forms_cost_no_more_than_the_async_path() {
    let (_rt, c, stub) = rig(1);
    let mut handle = ObjectHandle::new(stub.clone(), Durability::Volatile, true);
    let call = || {
        c.call(&stub, methods::INC, &()).unwrap();
    };
    let async_wait = || {
        c.call_async(&stub, methods::INC, &())
            .unwrap()
            .wait()
            .unwrap();
    };
    let mut call_handle = || {
        c.call_handle(&mut handle, methods::INC, &()).unwrap();
    };
    // Warm every form first, long enough that the runtime's tables have
    // stopped growing (about a thousand calls), so no growth lands inside
    // a measured window.
    for _ in 0..MEASURED {
        call();
        async_wait();
        call_handle();
    }
    let call = allocs_per_op(call);
    let async_wait = allocs_per_op(async_wait);
    let call_handle = allocs_per_op(call_handle);
    assert_eq!(
        async_wait, call,
        "call_async(..)?.wait() costs {async_wait} allocs/op, call {call}"
    );
    assert!(
        call_handle <= call,
        "call_handle costs {call_handle} allocs/op, call {call}"
    );
}

/// Allocations of a pipelined run: eight `call_async` in flight, each
/// slot refilled as soon as it completes (the shape that churns the op,
/// task and pending-call tables).
fn pipelined_run_allocs(seed: u64) -> u64 {
    let (mut rt, c, stub) = rig(seed);
    allocs_during(|| {
        let mut slots: Vec<Pending<i64>> = (0..8)
            .map(|_| c.call_async(&stub, methods::INC, &()).unwrap())
            .collect();
        let mut issued = slots.len();
        while !slots.is_empty() {
            rt.step();
            let mut i = 0;
            while i < slots.len() {
                if slots[i].is_done() {
                    slots.swap_remove(i).wait().unwrap();
                    if issued < 2_000 {
                        slots.push(c.call_async(&stub, methods::INC, &()).unwrap());
                        issued += 1;
                    }
                } else {
                    i += 1;
                }
            }
        }
    })
}

#[test]
fn same_seed_runs_allocate_identically() {
    assert_eq!(pipelined_run_allocs(7), pipelined_run_allocs(7));
}
