//! Lifecycle of operations on the runtime's op desk, where typed commands
//! wait for their node and typed outcomes wait for their `Pending`.
//!
//! Dropping a `Pending` abandons only the result: the command still runs,
//! and its outcome is discarded when it arrives. An op that can never
//! complete — its node crashed — leaves the desk as soon as nobody waits
//! for it. Either way `Runtime::ops_in_flight` returns to zero.

use mage_core::attribute::Rpc;
use mage_core::workload_support::{methods, test_object_class};
use mage_core::{ObjectSpec, Runtime, Session, Stub};

/// A client namespace `c` with an RPC stub to a counter hosted on `s`.
fn rig() -> (Runtime, Session, Stub) {
    let mut rt = Runtime::builder()
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

/// The counter's value.
fn counter(c: &Session, stub: &Stub) -> i64 {
    c.call(stub, methods::GET, &()).unwrap()
}

#[test]
fn dropped_pending_still_runs_and_leaves_no_entry() {
    let (mut rt, c, stub) = rig();
    assert_eq!(rt.ops_in_flight(), 0);

    // Dropped before the node took the command.
    let queued = c.call_async(&stub, methods::INC, &()).unwrap();
    drop(queued);
    // Dropped after the node took it: the first two steps deliver both
    // driver events, at the issuing instant.
    let running = c.call_async(&stub, methods::INC, &()).unwrap();
    assert!(rt.step());
    assert!(rt.step());
    drop(running);
    assert_eq!(rt.ops_in_flight(), 2, "abandoned ops keep running");

    rt.run_until_idle().unwrap();
    assert_eq!(rt.ops_in_flight(), 0);
    assert_eq!(counter(&c, &stub), 2);
    assert_eq!(rt.ops_in_flight(), 0);
}

#[test]
fn dropped_pending_after_completion_leaves_no_entry() {
    let (mut rt, c, stub) = rig();
    let done = c.call_async(&stub, methods::INC, &()).unwrap();
    rt.run_until_idle().unwrap();
    assert!(done.is_done());
    assert_eq!(rt.ops_in_flight(), 1, "the outcome waits to be collected");
    drop(done);
    assert_eq!(rt.ops_in_flight(), 0);
    assert_eq!(counter(&c, &stub), 1);
}

#[test]
fn command_to_a_node_that_crashes_before_delivery_is_released_on_drop() {
    let (mut rt, c, stub) = rig();
    let lost = c.call_async(&stub, methods::INC, &()).unwrap();
    assert!(rt.crash("c").unwrap());
    assert_eq!(rt.ops_in_flight(), 1);
    drop(lost);
    assert_eq!(rt.ops_in_flight(), 0);

    rt.run_until_idle().unwrap();
    assert!(rt.restart("c").unwrap());
    rt.run_until_idle().unwrap();
    assert_eq!(counter(&c, &stub), 0, "the command never ran");
    assert_eq!(rt.ops_in_flight(), 0);
}

#[test]
fn command_to_a_down_node_is_released_on_drop_after_restart() {
    let (mut rt, c, stub) = rig();
    assert!(rt.crash("c").unwrap());
    let lost = c.call_async(&stub, methods::INC, &()).unwrap();
    rt.run_until_idle().unwrap(); // the world drops the driver event
    assert!(rt.restart("c").unwrap());
    // Once the event's instant has passed, the untaken command is known
    // to be lost even though the node is back.
    rt.advance(mage_sim::SimDuration::from_millis(1)).unwrap();
    drop(lost);
    assert_eq!(rt.ops_in_flight(), 0);
    assert_eq!(counter(&c, &stub), 0, "the command never ran");
}

#[test]
fn abandoned_op_whose_node_crashes_is_released() {
    let (mut rt, c, stub) = rig();
    let running = c.call_async(&stub, methods::INC, &()).unwrap();
    assert!(rt.step(), "the node takes the command");
    drop(running);
    assert_eq!(rt.ops_in_flight(), 1);
    assert!(rt.crash("c").unwrap());
    assert_eq!(rt.ops_in_flight(), 0);
}

#[test]
fn waiting_on_a_lost_command_fails_and_leaves_no_entry() {
    let (mut rt, c, stub) = rig();
    let lost = c.call_async(&stub, methods::INC, &()).unwrap();
    assert!(rt.crash("c").unwrap());
    assert!(lost.wait().is_err());
    assert_eq!(rt.ops_in_flight(), 0);
}

#[test]
fn is_done_and_wait_agree() {
    let (mut rt, c, stub) = rig();
    let first = c.call_async(&stub, methods::INC, &()).unwrap();
    let second = c.call_async(&stub, methods::INC, &()).unwrap();
    assert!(!first.is_done());
    assert!(!second.is_done());
    while !first.is_done() {
        assert!(rt.step(), "the world idled before the op completed");
    }
    // Done means collected without running the world any further.
    let now = rt.now();
    assert_eq!(first.wait().unwrap(), 1);
    assert_eq!(rt.now(), now);
    // Not done yet: waiting runs the world until it is.
    assert!(!second.is_done());
    assert_eq!(second.wait().unwrap(), 2);
    assert_eq!(rt.ops_in_flight(), 0);
}
