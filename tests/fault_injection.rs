//! Failure injection across the full stack: message loss and partitions
//! under MAGE's migration protocols. The paper requires that attribute
//! protocols "recover from message loss and account for contention over
//! shared components" (§4.3).

use mage::attribute::{Cle, Grev};
use mage::sim::{LinkSpec, SimDuration};
use mage::workload_support::{methods, test_object_class};
use mage::{MageError, ObjectSpec, Runtime};

fn lossy_runtime(loss: f64, seed: u64) -> Runtime {
    let mut rt = Runtime::builder()
        .seed(seed)
        .link(
            LinkSpec::ideal()
                .with_latency(SimDuration::from_millis(1))
                .with_loss(loss),
        )
        .rmi_config(mage::rmi::Config {
            cost: mage::rmi::CostModel::zero(),
            call_timeout: SimDuration::from_millis(40),
            max_retries: 30,
        })
        .nodes(["a", "b", "c"])
        .class(test_object_class())
        .build();
    rt.deploy_class("TestObject", "a").unwrap();
    rt.session("a")
        .unwrap()
        .create(ObjectSpec::new("x").class("TestObject"))
        .unwrap();
    rt
}

#[test]
fn migrations_survive_heavy_message_loss() {
    let rt = lossy_runtime(0.3, 77);
    let a = rt.session("a").unwrap();
    let hops = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")];
    for (_from, to) in hops.iter() {
        let attr = Grev::new("TestObject", "x", *to);
        let stub = a.bind(&attr).unwrap();
        assert_eq!(rt.node_name(stub.location()), Some(*to));
    }
    assert!(
        rt.world().metrics().net.dropped > 0,
        "loss must have occurred"
    );
}

#[test]
fn invocations_are_exactly_once_under_loss() {
    let rt = lossy_runtime(0.35, 123);
    let b = rt.session("b").unwrap();
    let cle = Cle::new("TestObject", "x");
    let mut last = 0i64;
    for i in 1..=15 {
        let (_s, v) = b.bind_invoke(&cle, methods::INC, &()).unwrap();
        let v = v.unwrap();
        assert_eq!(v, i, "retransmissions must not double-apply inc");
        last = v;
    }
    assert_eq!(last, 15);
    assert!(rt.world().metrics().net.dropped > 0);
}

#[test]
fn partition_fails_the_bind_and_heal_recovers_it() {
    let mut rt = lossy_runtime(0.0, 5);
    let a = rt.node_id("a").unwrap();
    let b = rt.node_id("b").unwrap();
    rt.world_mut().partition(a, b);
    let sa = rt.session("a").unwrap();
    let sc = rt.session("c").unwrap();
    let attr = Grev::new("TestObject", "x", "b");
    let err = sa.bind(&attr).unwrap_err();
    assert!(
        matches!(err, MageError::Unreachable { .. }),
        "partition surfaces as typed Unreachable: {err:?}"
    );
    // The object must still be whole and usable at `a` after the abort.
    let cle = Cle::new("TestObject", "x");
    let (_s, v) = sa.bind_invoke(&cle, methods::INC, &()).unwrap();
    assert_eq!(v, Some(1));
    // After healing, the same attribute succeeds.
    rt.world_mut().heal(a, b);
    let stub = sa.bind(&attr).unwrap();
    assert_eq!(rt.node_name(stub.location()), Some("b"));
    let (_s, v) = sc.bind_invoke(&cle, methods::INC, &()).unwrap();
    assert_eq!(
        v,
        Some(2),
        "state survived the failed and the successful move"
    );
}

#[test]
fn loss_runs_are_deterministic_per_seed() {
    let run = |seed: u64| {
        let rt = lossy_runtime(0.25, seed);
        let sa = rt.session("a").unwrap();
        let sc = rt.session("c").unwrap();
        let attr = Grev::new("TestObject", "x", "b");
        sa.bind(&attr).unwrap();
        let back = Grev::new("TestObject", "x", "a");
        sc.bind(&back).unwrap();
        let sent = rt.world().metrics().net.sent;
        let dropped = rt.world().metrics().net.dropped;
        (rt.now(), sent, dropped)
    };
    assert_eq!(run(9), run(9));
    // Different seeds see different loss patterns (sanity that loss is on).
    let a = run(1);
    let b = run(2);
    assert!(a != b || a.2 > 0);
}
