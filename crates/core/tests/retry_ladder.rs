//! The exec engine's retry table, one row per test.
//!
//! Each scenario drives a single operation into one row of the table
//! (phase × error → resume point). Under the default retry budget the
//! operation recovers and succeeds; with `race_retries: 0` the same
//! failure surfaces as its typed error instead. Disabling the row under
//! test turns the first half of each test into a failure.

use mage_core::attribute::{Cle, Grev, Rev};
use mage_core::workload_support::{methods, test_object_class};
use mage_core::{LockKind, MageError, NodeConfig, ObjectSpec, Runtime, Visibility};
use mage_sim::SimDuration;

fn runtime(nodes: &[&str], race_retries: u8) -> Runtime {
    let config = NodeConfig {
        race_retries,
        ..Default::default()
    };
    let mut rt = Runtime::builder()
        .fast()
        .seed(77)
        .nodes(nodes.iter().copied())
        .node_config(config)
        .class(test_object_class())
        .build();
    rt.deploy_class("TestObject", nodes[0]).unwrap();
    rt
}

fn default_retries() -> u8 {
    NodeConfig::default().race_retries
}

/// Row `AwaitInvoke` + stale location → find again, whose walk then
/// meets a dead hop.
///
/// A stub call misses at its cached location, so the engine spends a
/// retry and re-finds the object from its home. The home's forwarding
/// entry points at a dead node, and the walk fails `Unreachable` after
/// the RMI retries run out. A find is not a row of the table: the walk
/// drops the dead entry and retries once from the home, spending no
/// retry budget. Meanwhile the object migrates to the home itself, so the
/// retried walk resolves there and the call goes through.
fn find_walk_meets_a_dead_hop(race_retries: u8) -> Result<i64, MageError> {
    let mut rt = runtime(&["home", "dead", "b", "client"], race_retries);
    let home = rt.session("home").unwrap();
    home.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();
    let client = rt.session("client").unwrap();
    let stub = client.bind(&Cle::new("TestObject", "obj")).unwrap();

    // home → dead → b: the object ends at `b`, and the home's entry still
    // names `dead`, which then crashes for good.
    let dead = rt.session("dead").unwrap();
    dead.bind_invoke(&Grev::new("TestObject", "obj", "dead"), methods::INC, &())
        .unwrap();
    let b = rt.session("b").unwrap();
    b.bind_invoke(&Grev::new("TestObject", "obj", "b"), methods::INC, &())
        .unwrap();
    rt.crash("dead").unwrap();

    // The stub still points at `home`: the call misses there, and its
    // re-find from the home waits on the dead hop.
    let pending = client.call_async(&stub, methods::INC, &()).unwrap();
    rt.advance(SimDuration::from_millis(50)).unwrap();
    // While the walk waits, `b` sends the object home.
    b.bind_invoke(&Grev::new("TestObject", "obj", "home"), methods::INC, &())
        .unwrap();
    pending.wait()
}

#[test]
fn find_walk_meeting_a_dead_hop_retries_from_the_home() {
    assert_eq!(find_walk_meets_a_dead_hop(default_retries()).unwrap(), 4);
    let err = find_walk_meets_a_dead_hop(0).unwrap_err();
    assert!(
        matches!(err, MageError::NotFound(_)),
        "without retries the miss at the stale location surfaces, got {err:?}"
    );
}

/// Row `AwaitMove` + stale location → re-run the placement.
///
/// A private object's cached location is authoritative (§3.5), so a REV
/// bind sends its `moveTo` straight to where the session last saw the
/// object. The object has migrated since; the `moveTo` is refused
/// `NotBound`, and the engine re-finds the object and moves it from
/// where it really is.
fn rev_move_races_a_migration(race_retries: u8) -> Result<Option<i64>, MageError> {
    let rt = runtime(&["home", "x", "y", "c1", "c2", "t"], race_retries);
    let home = rt.session("home").unwrap();
    home.create(
        ObjectSpec::new("obj")
            .class("TestObject")
            .visibility(Visibility::Private),
    )
    .unwrap();
    let c1 = rt.session("c1").unwrap();
    c1.bind_invoke(&Grev::new("TestObject", "obj", "x"), methods::INC, &())
        .unwrap();
    // `c2` learns that the object is at `x`…
    let c2 = rt.session("c2").unwrap();
    assert_eq!(c2.find("obj").unwrap(), rt.node_id("x").unwrap());
    // …and `c1` then moves it on to `y` behind `c2`'s back.
    c1.bind_invoke(&Grev::new("TestObject", "obj", "y"), methods::INC, &())
        .unwrap();

    let (stub, count) = c2.bind_invoke(&Rev::new("TestObject", "obj", "t"), methods::INC, &())?;
    assert_eq!(stub.location(), rt.node_id("t").unwrap());
    Ok(count)
}

#[test]
fn rev_move_racing_a_migration_refinds_and_moves() {
    assert_eq!(
        rev_move_races_a_migration(default_retries()).unwrap(),
        Some(3)
    );
    let err = rev_move_races_a_migration(0).unwrap_err();
    assert!(
        matches!(err, MageError::NotFound(_)),
        "without retries the refused moveTo surfaces, got {err:?}"
    );
}

/// Row `AwaitLock` + advisory `StaleIdentity` → lock again.
///
/// A guarded bind carries the incarnation its session cached. The object
/// died with its host and was re-created there, so the lock request is
/// refused `StaleIdentity`. A bind's identity is advisory, so the engine
/// re-finds, learns the fresh incarnation and locks that one knowingly.
fn guarded_bind_meets_a_recreation(race_retries: u8) -> Result<Option<i64>, MageError> {
    let mut rt = runtime(&["h0", "a", "c"], race_retries);
    let private = || {
        ObjectSpec::new("obj")
            .class("TestObject")
            .visibility(Visibility::Private)
    };
    let s0 = rt.session("h0").unwrap();
    s0.create(private()).unwrap();
    let sa = rt.session("a").unwrap();
    sa.bind_invoke(&Grev::new("TestObject", "obj", "a"), methods::INC, &())
        .unwrap();
    // `c` caches (a, first incarnation).
    let sc = rt.session("c").unwrap();
    assert_eq!(sc.find("obj").unwrap(), rt.node_id("a").unwrap());

    rt.crash("a").unwrap();
    rt.restart("a").unwrap();
    rt.deploy_class("TestObject", "a").unwrap();
    rt.session("a").unwrap().create(private()).unwrap();

    let attr = Cle::new("TestObject", "obj").guarded();
    let (_stub, count) = sc.bind_invoke(&attr, methods::INC, &())?;
    assert!(
        rt.world().metrics().counter("stale_lock_refusals") >= 1,
        "the lock must have met the re-created object"
    );
    Ok(count)
}

#[test]
fn guarded_bind_meeting_a_recreation_relocks_the_successor() {
    assert_eq!(
        guarded_bind_meets_a_recreation(default_retries()).unwrap(),
        Some(1)
    );
    let err = guarded_bind_meets_a_recreation(0).unwrap_err();
    assert!(
        matches!(err, MageError::StaleIdentity { .. }),
        "without retries the refused lock surfaces, got {err:?}"
    );
}

/// Row `AwaitLock` + unreachable → lock again, for an explicit lock.
///
/// The client's registry says the object is at `dead`, which has
/// crashed. An explicit lock takes the registry's word, so its request
/// meets the dead host; the engine forgets that entry, locates the object
/// from its home and locks it there.
fn lock_meets_a_dead_registry_entry(race_retries: u8) -> Result<LockKind, MageError> {
    let mut rt = runtime(&["home", "dead", "c"], race_retries);
    let home = rt.session("home").unwrap();
    home.create(ObjectSpec::new("obj").class("TestObject"))
        .unwrap();
    rt.seed_registry_entry("c", "obj", "dead").unwrap();
    rt.crash("dead").unwrap();
    rt.session("c").unwrap().lock("obj", "c")
}

#[test]
fn lock_meeting_a_dead_registry_entry_relocates_from_the_home() {
    assert_eq!(
        lock_meets_a_dead_registry_entry(default_retries()).unwrap(),
        LockKind::Move
    );
    let dead = runtime(&["home", "dead", "c"], 0).node_id("dead").unwrap();
    assert_eq!(
        lock_meets_a_dead_registry_entry(0).unwrap_err(),
        MageError::Unreachable {
            peer: dead.as_raw()
        },
        "without retries the refused lock surfaces"
    );
}
