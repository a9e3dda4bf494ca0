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
//!
//! Absolute ceilings pin the per-op floor: a warmed `Session::call` makes
//! at most five allocations (the desk's op-id key, the marshalled
//! arguments, the object's result and the two frames), a warmed durable
//! `call_handle` (one checkpoint shipped per call) at most 10, and a warmed
//! REV `bind_invoke` at most 20. Warmed means past the first fill of every
//! table, the server's call windows included.
//!
//! `attribute_allocations_per_call_site` is the attribution tool behind
//! those numbers: run it with
//! `cargo test -p mage-core --test alloc_budget -- --ignored --nocapture`
//! to print one warmed raw RMI round trip's, call's and REV's allocations
//! grouped by the call site that made them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use mage_core::attribute::{Rev, Rpc};
use mage_core::workload_support::{methods, test_object_class};
use mage_core::{Durability, ObjectHandle, ObjectSpec, Pending, Runtime};
use mage_rmi::{client_endpoint, drive_call, server_endpoint, Config, ObjectEnv};
use mage_sim::{LinkSpec, Network, NodeId, World};

/// Counts this thread's allocations and reallocations, and records the
/// call site of each one while [`record_sites`] runs.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Whether allocations are being attributed.
    static RECORDING: Cell<bool> = const { Cell::new(false) };
    /// Set while an allocation's backtrace is captured, so the capture's
    /// own allocations are not attributed.
    static IN_HOOK: Cell<bool> = const { Cell::new(false) };
    static SITES: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let recording = RECORDING.try_with(Cell::get).unwrap_or(false);
    if recording && !IN_HOOK.with(|h| h.replace(true)) {
        let site = call_site(&Backtrace::force_capture().to_string());
        SITES.with(|sites| sites.borrow_mut().push(site));
        IN_HOOK.with(|h| h.set(false));
    }
}

/// The allocating call site in a rendered backtrace: the innermost frame
/// of a workspace crate, with its source file and line when the build
/// has them, and the workspace frame that called it.
fn call_site(backtrace: &str) -> String {
    let mut frames: Vec<String> = Vec::new();
    let mut lines = backtrace.lines().map(str::trim).peekable();
    while let Some(line) = lines.next() {
        let Some((_, symbol)) = line.split_once(": ") else {
            continue;
        };
        if !symbol.contains("mage_") {
            continue;
        }
        let at = lines
            .next_if(|next| next.starts_with("at "))
            .and_then(|at| at.rsplit(['/', '\\']).next())
            .map(|file| format!(" ({file})"))
            .unwrap_or_default();
        frames.push(format!("{symbol}{at}"));
        if frames.len() == 2 {
            break;
        }
    }
    match frames.as_slice() {
        [] => "<outside the workspace crates>".to_owned(),
        [site] => site.clone(),
        [site, caller, ..] => format!("{site}\n         <- {caller}"),
    }
}

/// Runs `f` `ops` times and returns its allocations per op, grouped by
/// call site (most frequent first).
fn record_sites(ops: usize, mut f: impl FnMut()) -> Vec<(String, f64)> {
    SITES.with(|sites| sites.borrow_mut().clear());
    RECORDING.with(|r| r.set(true));
    for _ in 0..ops {
        f();
    }
    RECORDING.with(|r| r.set(false));
    let sites = SITES.with(|sites| std::mem::take(&mut *sites.borrow_mut()));
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for site in sites {
        *counts.entry(site).or_default() += 1;
    }
    let mut table: Vec<(String, f64)> = counts
        .into_iter()
        .map(|(site, n)| (site, n as f64 / ops as f64))
        .collect();
    table.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    table
}

fn print_sites(title: &str, table: &[(String, f64)]) {
    let total: f64 = table.iter().map(|(_, n)| n).sum();
    println!("{title}: {total:.2} allocs/op");
    for (site, n) in table {
        println!("  {n:5.2}  {site}");
    }
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
/// Warm-up of the absolute ceilings: past the first fill of every table.
const WARMED: usize = 2 * MEASURED;

/// A plain-RMI client and an echo server, with nothing of MAGE.
fn rmi_rig() -> (World, NodeId, NodeId) {
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
    (world, client, server)
}

/// One raw RMI round trip with `inc`'s (unit) arguments, marshalled per
/// call as a session call does.
fn rmi_call(world: &mut World, client: NodeId, server: NodeId) {
    let args = mage_codec::to_bytes(&()).unwrap();
    drive_call(world, client, server, "echo", "echo", args)
        .unwrap()
        .unwrap();
}

/// Per-op allocations of raw RMI round trips.
fn raw_rmi_allocs_per_op() -> f64 {
    let (mut world, client, server) = rmi_rig();
    for _ in 0..WARMUP {
        rmi_call(&mut world, client, server);
    }
    let n = allocs_during(|| {
        for _ in 0..MEASURED {
            rmi_call(&mut world, client, server);
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

/// A client `c` over a counter `p` hosted at `s`, and a third namespace
/// `t`; every namespace holds the class, so a REV alternating between
/// `s` and `t` moves the object on every bind and ships no class.
fn rev_rig() -> (Runtime, mage_core::Session, [Rev; 2]) {
    let mut rt = Runtime::builder()
        .seed(1)
        .nodes(["c", "s", "t"])
        .class(test_object_class())
        .build();
    for node in ["c", "s", "t"] {
        rt.deploy_class("TestObject", node).unwrap();
    }
    rt.session("s")
        .unwrap()
        .create(ObjectSpec::new("p").class("TestObject"))
        .unwrap();
    let c = rt.session("c").unwrap();
    let revs = ["s", "t"].map(|target| Rev::new("TestObject", "p", target));
    (rt, c, revs)
}

#[test]
fn warmed_session_call_costs_at_most_five_allocs() {
    let (_rt, c, stub) = rig(1);
    let call = || {
        c.call(&stub, methods::INC, &()).unwrap();
    };
    for _ in 0..WARMED {
        call();
    }
    let allocs = allocs_per_op(call);
    assert!(allocs <= 5.0, "session.call costs {allocs} allocs/op");
}

#[test]
fn warmed_durable_call_costs_at_most_10_allocs() {
    let mut rt = Runtime::builder()
        .seed(1)
        .nodes(["c", "h", "b"])
        .class(test_object_class())
        .build();
    rt.deploy_class("TestObject", "c").unwrap();
    let c = rt.session("c").unwrap();
    let spec = ObjectSpec::new("p")
        .class("TestObject")
        .mobility(Rev::new("TestObject", "p", "h"))
        .durability(Durability::Replicated { backups: 1 })
        .backup("b");
    let mut handle = c.create(spec).unwrap();
    let mut call = || {
        c.call_handle(&mut handle, methods::INC, &()).unwrap();
    };
    for _ in 0..WARMED {
        call();
    }
    let allocs = allocs_per_op(call);
    assert!(
        allocs <= 10.0,
        "durable call_handle costs {allocs} allocs/op"
    );
}

#[test]
fn warmed_rev_bind_invoke_costs_at_most_20_allocs() {
    let (_rt, c, revs) = rev_rig();
    let mut i = 0;
    let mut rev = || {
        c.bind_invoke(&revs[i % 2], methods::INC, &()).unwrap();
        i += 1;
    };
    for _ in 0..WARMED {
        rev();
    }
    let allocs = allocs_per_op(rev);
    assert!(allocs <= 20.0, "REV bind_invoke costs {allocs} allocs/op");
}

/// Prints one warmed raw RMI round trip's, one warmed `Session::call`'s
/// and one warmed REV `bind_invoke`'s allocations, grouped by call site.
#[test]
#[ignore = "attribution tool; run with --ignored --nocapture"]
fn attribute_allocations_per_call_site() {
    const OPS: usize = 10;
    let (mut world, client, server) = rmi_rig();
    for _ in 0..WARMED {
        rmi_call(&mut world, client, server);
    }
    let rmi = record_sites(OPS, || rmi_call(&mut world, client, server));
    print_sites("raw RMI drive_call", &rmi);

    let (_rt, c, stub) = rig(1);
    let call = || {
        c.call(&stub, methods::INC, &()).unwrap();
    };
    for _ in 0..WARMED {
        call();
    }
    print_sites("session.call", &record_sites(OPS, call));

    let (_rt, c, revs) = rev_rig();
    let mut i = 0;
    let mut rev = || {
        c.bind_invoke(&revs[i % 2], methods::INC, &()).unwrap();
        i += 1;
    };
    for _ in 0..WARMED {
        rev();
    }
    print_sites("REV bind_invoke", &record_sites(OPS, rev));
}
