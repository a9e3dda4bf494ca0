//! The pipelined session API: overlapping in-flight operations from
//! concurrent sessions against one world, typed `Pending<T>` semantics,
//! and compile-time method descriptors.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use mage_core::attribute::{
    BindPlan, Cle, Cod, Grev, MobileAgent, MobilityAttribute, PolicyAttribute, Rev, Rpc,
};
use mage_core::workload_support::{methods, test_object_class};
use mage_core::{LockKind, Method, ObjectSpec, Runtime, Visibility};

fn runtime() -> Runtime {
    let mut rt = Runtime::builder()
        .nodes(["host", "c1", "c2"])
        .class(test_object_class())
        .build();
    rt.deploy_class("TestObject", "host").unwrap();
    rt.session("host")
        .unwrap()
        .create(ObjectSpec::new("shared").class("TestObject"))
        .unwrap();
    rt
}

#[test]
fn two_sessions_interleave_in_flight_binds_deterministically() {
    // Two sessions race guarded moves of one public object. Both binds are
    // issued before the world runs either placement protocol; the lock
    // queue serializes them, and the interleaving is a pure function of
    // the seed.
    let run = || {
        let mut rt = runtime();
        let c1 = rt.session("c1").unwrap();
        let c2 = rt.session("c2").unwrap();
        let a1 = Grev::new("TestObject", "shared", "c1").guarded();
        let a2 = Grev::new("TestObject", "shared", "c2").guarded();
        let p1 = c1.bind_invoke_async(&a1, methods::INC, &()).unwrap();
        let p2 = c2.bind_invoke_async(&a2, methods::INC, &()).unwrap();
        assert!(!p1.is_done() && !p2.is_done(), "both still in flight");
        rt.run_until_idle().unwrap();
        assert!(p1.is_done() && p2.is_done(), "idle world ⇒ both complete");
        let (s1, r1) = p1.wait().unwrap();
        let (s2, r2) = p2.wait().unwrap();
        // Exactly one copy exists; both increments landed in some order.
        let mut results = [r1.unwrap(), r2.unwrap()];
        results.sort_unstable();
        assert_eq!(results, [1, 2]);
        (
            rt.node_name(s1.location()).unwrap().to_owned(),
            rt.node_name(s2.location()).unwrap().to_owned(),
            rt.now(),
        )
    };
    let first = run();
    assert_eq!(first, run(), "same seed ⇒ identical interleaving");
}

#[test]
fn pipelined_calls_from_two_sessions_all_complete() {
    let mut rt = runtime();
    let c1 = rt.session("c1").unwrap();
    let c2 = rt.session("c2").unwrap();
    let attr = Rpc::new("TestObject", "shared", "host");
    let s1 = c1.bind(&attr).unwrap();
    let s2 = c2.bind(&attr).unwrap();
    // A batch of overlapping invocations, alternating sessions, all
    // issued before any result is collected.
    let batch: Vec<_> = (0..6)
        .map(|i| {
            let session = if i % 2 == 0 { &c1 } else { &c2 };
            let stub = if i % 2 == 0 { &s1 } else { &s2 };
            session.call_async(stub, methods::INC, &()).unwrap()
        })
        .collect();
    rt.run_until_idle().unwrap();
    let values: Vec<i64> = batch.into_iter().map(|p| p.wait().unwrap()).collect();
    // One object served every increment exactly once.
    let mut sorted = values.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![1, 2, 3, 4, 5, 6]);
}

#[test]
fn is_done_and_wait_agree_without_extra_time() {
    let mut rt = runtime();
    let c1 = rt.session("c1").unwrap();
    let pending = c1.lock_async("shared", "c1").unwrap();
    assert!(!pending.is_done(), "nothing has run yet");
    // Step the world to completion one event at a time.
    let mut steps = 0u32;
    while !pending.is_done() {
        assert!(rt.step(), "world went idle before the lock resolved");
        steps += 1;
    }
    assert!(steps > 0);
    let before = rt.now();
    let kind = pending.wait().unwrap();
    assert_eq!(
        kind,
        LockKind::Move,
        "object is at host, requester wants it at c1"
    );
    assert_eq!(
        rt.now(),
        before,
        "wait after is_done consumes no virtual time"
    );
    c1.unlock("shared").unwrap();
}

#[test]
fn find_async_overlaps_with_calls() {
    let mut rt = runtime();
    let c1 = rt.session("c1").unwrap();
    let c2 = rt.session("c2").unwrap();
    let stub = c1.bind(&Rpc::new("TestObject", "shared", "host")).unwrap();
    let call = c1.call_async(&stub, methods::INC, &()).unwrap();
    let found = c2.find_async("shared").unwrap();
    rt.run_until_idle().unwrap();
    assert_eq!(found.wait().unwrap(), rt.node_id("host").unwrap());
    assert_eq!(call.wait().unwrap(), 1);
}

/// Compile-pass coverage for typed method descriptors: the constants pin
/// both sides of the wire. The rejection half (mismatched argument types
/// must not compile) lives as a `compile_fail` doctest on
/// [`mage_core::Method`], where rustdoc actually runs it.
#[test]
fn typed_method_descriptors_infer_arg_and_result_types() {
    let rt = runtime();
    let c1 = rt.session("c1").unwrap();
    let stub = c1.bind(&Rpc::new("TestObject", "shared", "host")).unwrap();
    // No turbofish anywhere: INC's descriptor fixes args = () and ret = i64.
    let v = c1.call(&stub, methods::INC, &()).unwrap();
    let doubled: i64 = v * 2;
    assert_eq!(doubled, 2);
    // Descriptors are plain consts usable in generic plumbing.
    const MY_GET: Method<(), i64> = Method::new("get");
    assert_eq!(MY_GET.name(), "get");
    let got = c1.call(&stub, MY_GET, &()).unwrap();
    assert_eq!(got, v);
}

#[test]
fn self_find_during_own_move_resolves_to_destination() {
    // A session moving its own object can look it up mid-move: the find
    // parks at the origin until the transfer settles, then answers with
    // the destination (instead of faulting NotFound).
    let mut rt = runtime();
    let host = rt.session("host").unwrap();
    let mv = host
        .bind_async(&Grev::new("TestObject", "shared", "c1"))
        .unwrap();
    let find = host.find_async("shared").unwrap();
    rt.run_until_idle().unwrap();
    let stub = mv.wait().unwrap();
    assert_eq!(rt.node_name(stub.location()), Some("c1"));
    assert_eq!(find.wait().unwrap(), rt.node_id("c1").unwrap());
}

/// One of each built-in plan the issue-only property covers, bound to
/// `object` (REV and guarded REV, GREV and MA target `c2`; RPC expects the
/// object where it was created).
fn builtin_attrs(object: &str) -> Vec<Box<dyn MobilityAttribute>> {
    vec![
        Box::new(Rev::new("TestObject", object, "c2")),
        Box::new(Rev::new("TestObject", object, "c2").guarded()),
        Box::new(Grev::new("TestObject", object, "c2")),
        Box::new(Cod::new("TestObject", object)),
        Box::new(Cle::new("TestObject", object)),
        Box::new(MobileAgent::new("TestObject", object, "c2")),
        Box::new(Rpc::new("TestObject", object, "host")),
    ]
}

#[test]
fn async_binds_only_issue() {
    // Issuing a built-in bind sends nothing and takes no virtual time,
    // for shared and private objects alike: finding the object is the
    // engine's first step once the world runs, not the issuer's.
    for (object, visibility) in [
        ("shared", Visibility::Public),
        ("mine", Visibility::Private),
    ] {
        for invoke in [false, true] {
            for i in 0..builtin_attrs(object).len() {
                let rt = runtime();
                rt.session("host")
                    .unwrap()
                    .create(
                        ObjectSpec::new("mine")
                            .class("TestObject")
                            .visibility(Visibility::Private),
                    )
                    .unwrap();
                let c1 = rt.session("c1").unwrap();
                let attr = &builtin_attrs(object)[i];
                let (now, sent) = (rt.now(), rt.world().metrics().net.sent);
                if invoke {
                    let pending = c1.bind_invoke_async(attr.as_ref(), methods::INC, &());
                    assert!(pending.is_ok(), "{} {visibility:?}", attr.name());
                } else {
                    let pending = c1.bind_async(attr.as_ref());
                    assert!(pending.is_ok(), "{} {visibility:?}", attr.name());
                }
                let what = format!("{} on a {visibility:?} object", attr.name());
                assert_eq!(rt.now(), now, "{what} advanced virtual time");
                assert_eq!(rt.world().metrics().net.sent, sent, "{what} sent messages");
            }
        }
    }
}

/// Session c1 caches `shared` at `host`, then session c2 moves it to `c2`
/// behind c1's back.
fn moved_behind_c1s_back() -> (Runtime, mage_core::Session) {
    let rt = runtime();
    let c1 = rt.session("c1").unwrap();
    assert_eq!(c1.find("shared").unwrap(), rt.node_id("host").unwrap());
    let c2 = rt.session("c2").unwrap();
    c2.bind(&Rev::new("TestObject", "shared", "c2")).unwrap();
    (rt, c1)
}

#[test]
fn a_bind_consults_its_planner_once() {
    let (_rt, c1) = moved_behind_c1s_back();
    let calls = Rc::new(Cell::new(0u32));
    let counter = Rc::clone(&calls);
    let attr = PolicyAttribute::new("Counting", "TestObject", "shared", move |_| {
        counter.set(counter.get() + 1);
        Ok(BindPlan::stay())
    });
    c1.bind(&attr).unwrap();
    assert_eq!(calls.get(), 1, "a stale cache must not re-run the planner");
}

#[test]
fn a_plan_sees_the_shared_objects_current_location() {
    let (rt, c1) = moved_behind_c1s_back();
    let seen = Rc::new(RefCell::new(Vec::new()));
    let record = Rc::clone(&seen);
    let attr = PolicyAttribute::new("Recording", "TestObject", "shared", move |view| {
        record.borrow_mut().push(view.location());
        Ok(BindPlan::stay())
    });
    let stub = c1.bind(&attr).unwrap();
    let c2 = rt.node_id("c2").unwrap();
    assert_eq!(*seen.borrow(), vec![Some(c2)], "found once, before use");
    assert_eq!(stub.location(), c2);
}

#[test]
fn single_use_factory_recreates_a_vanished_instance() {
    let mut rt = runtime();
    let c1 = rt.session("c1").unwrap();
    let attr = Rev::single_use("TestObject", "probe", "c2");
    let (stub, n) = c1.bind_invoke(&attr, methods::INC, &()).unwrap();
    assert_eq!((rt.node_name(stub.location()), n), (Some("c2"), Some(1)));
    let (_, n) = c1.bind_invoke(&attr, methods::INC, &()).unwrap();
    assert_eq!(n, Some(2), "a live instance is moved, not re-created");
    // The instance dies with its host; the next bind must notice (its plan
    // asks where the instance is) and instantiate afresh.
    rt.crash("c2").unwrap();
    rt.restart("c2").unwrap();
    let (stub, n) = c1.bind_invoke(&attr, methods::INC, &()).unwrap();
    assert_eq!((rt.node_name(stub.location()), n), (Some("c2"), Some(1)));
}

#[test]
fn single_use_factory_does_not_recreate_an_unreachable_instance() {
    let mut rt = Runtime::builder()
        .nodes(["host", "c1", "c2", "far"])
        .class(test_object_class())
        .build();
    rt.deploy_class("TestObject", "host").unwrap();
    let c1 = rt.session("c1").unwrap();
    let attr = Rev::single_use("TestObject", "probe", "c2");
    let (_, n) = c1.bind_invoke(&attr, methods::INC, &()).unwrap();
    assert_eq!(n, Some(1));
    let (_, n) = rt
        .session("host")
        .unwrap()
        .bind_invoke(&Rev::new("TestObject", "probe", "far"), methods::INC, &())
        .unwrap();
    assert_eq!(n, Some(2));
    // The instance is alive at `far`, only out of reach of c1 and of the
    // forwarding pointer c1 knows (`c2`): the plan's find must fail the
    // bind typed, not read as "vanished" and instantiate a second live
    // copy at `c2`.
    rt.partition_between("c1", "far").unwrap();
    rt.partition_between("c2", "far").unwrap();
    let err = c1.bind_invoke(&attr, methods::INC, &()).unwrap_err();
    assert!(
        matches!(err, mage_core::MageError::Unreachable { .. }),
        "{err:?}"
    );
    // A copy at `c2` would answer `c2`'s own find locally.
    let at_c2 = rt.session("c2").unwrap().find("probe");
    assert_ne!(at_c2.ok(), Some(rt.node_id("c2").unwrap()), "fresh copy");
}
