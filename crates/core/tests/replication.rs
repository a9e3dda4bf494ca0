//! Integration tests for the durability policy: replicated objects
//! checkpoint to a fixed backup home and survive their host's crash as a
//! fresh incarnation restored at the backup — observable on pinned stubs
//! only as a typed `StaleIdentity` followed by a (possibly automatic)
//! rebind.

use mage_core::attribute::Rev;
use mage_core::workload_support::{methods, test_object_class};
use mage_core::{Durability, MageError, ObjectSpec, Runtime};
use mage_sim::TraceEvent;

fn world(nodes: &[&str]) -> Runtime {
    let mut rt = Runtime::builder()
        .fast()
        .nodes(nodes.iter().copied())
        .class(test_object_class())
        .build();
    rt.deploy_class("TestObject", nodes[0]).unwrap();
    rt
}

fn replicated_counter(backup: &str) -> ObjectSpec {
    ObjectSpec::new("counter")
        .class("TestObject")
        .durability(Durability::Replicated { backups: 1 })
        .backup(backup)
}

#[test]
fn crash_restores_state_at_backup_and_rebinds_pinned_handle() {
    let mut rt = world(&["a", "b", "c"]);
    let a = rt.session("a").unwrap();
    let mut handle = a.create(replicated_counter("b")).unwrap();
    // Mutate through the creator: value 1, 2, 3 — each checkpointed to b.
    for want in 1..=3 {
        assert_eq!(a.call_handle(&mut handle, methods::INC, &()).unwrap(), want);
    }
    // A second client binds its own pinned handle before the crash.
    let c = rt.session("c").unwrap();
    let stub = c
        .bind(&mage_core::attribute::Cle::new("TestObject", "counter"))
        .unwrap();
    let mut theirs =
        mage_core::ObjectHandle::new(stub, Durability::Replicated { backups: 1 }, true);
    assert_eq!(c.call_handle(&mut theirs, methods::INC, &()).unwrap(), 4);
    let before = theirs.incarnation();

    rt.crash("a").unwrap();

    // The engine consults the backup, restores at b (fresh incarnation),
    // and call_handle turns the StaleIdentity into an auto-rebind: the
    // counter continues from its checkpointed state.
    assert_eq!(c.call_handle(&mut theirs, methods::INC, &()).unwrap(), 5);
    assert_ne!(theirs.incarnation(), before, "restore re-mints identity");
    assert_eq!(rt.node_name(theirs.location()), Some("b"));
    let world = rt.world();
    assert!(world.metrics().counter("snapshot_restores") >= 1);
    assert!(world.metrics().counter("snapshots_stored") >= 4);
    assert!(world.metrics().counter("auto_rebinds") >= 1);
}

#[test]
fn unpinned_handle_recovers_transparently() {
    let mut rt = world(&["a", "b", "c"]);
    let a = rt.session("a").unwrap();
    let mut handle = a.create(replicated_counter("b").pinned(false)).unwrap();
    assert_eq!(a.call_handle(&mut handle, methods::INC, &()).unwrap(), 1);

    // The client driving the recovery must survive the crash.
    let c = rt.session("c").unwrap();
    let stub = handle.stub().clone();
    let mut theirs = mage_core::ObjectHandle::new(stub, handle.durability(), false);
    rt.crash("a").unwrap();

    // Unpinned identity is advisory: the engine re-resolves against the
    // restored incarnation in place — no StaleIdentity ever surfaces, no
    // explicit rebind happens.
    let rebinds_before = rt.world().metrics().counter("auto_rebinds");
    assert_eq!(c.call_handle(&mut theirs, methods::INC, &()).unwrap(), 2);
    assert_eq!(rt.world().metrics().counter("auto_rebinds"), rebinds_before);
    assert_eq!(rt.node_name(theirs.location()), Some("b"));
}

#[test]
fn backup_home_crash_means_typed_not_found() {
    let mut rt = world(&["a", "b", "c"]);
    let a = rt.session("a").unwrap();
    let mut handle = a.create(replicated_counter("b")).unwrap();
    assert_eq!(a.call_handle(&mut handle, methods::INC, &()).unwrap(), 1);

    let c = rt.session("c").unwrap();
    let stub = c
        .bind(&mage_core::attribute::Cle::new("TestObject", "counter"))
        .unwrap();
    let mut theirs =
        mage_core::ObjectHandle::new(stub, Durability::Replicated { backups: 1 }, true);

    // Both the primary and the backup home die: no restore is possible.
    // While the primary's host is still dark, the outcome is typed
    // (Unreachable — it could be a partition); once it restarts empty,
    // the find dead-ends cleanly and the loss surfaces as NotFound.
    rt.crash("b").unwrap();
    rt.crash("a").unwrap();
    let err = c.call_handle(&mut theirs, methods::INC, &()).unwrap_err();
    assert!(
        matches!(err, MageError::Unreachable { .. } | MageError::NotFound(_)),
        "expected a typed crash outcome, got {err:?}"
    );
    rt.restart("a").unwrap();
    let err = c.call_handle(&mut theirs, methods::INC, &()).unwrap_err();
    assert!(
        matches!(err, MageError::NotFound(_)),
        "expected NotFound, got {err:?}"
    );
    assert_eq!(rt.world().metrics().counter("snapshot_restores"), 0);
}

#[test]
fn volatile_objects_still_die_with_their_host() {
    let mut rt = world(&["a", "b", "c"]);
    let a = rt.session("a").unwrap();
    let handle = a
        .create(ObjectSpec::new("counter").class("TestObject"))
        .unwrap();
    let c = rt.session("c").unwrap();
    let stub = handle.stub().clone();
    rt.crash("a").unwrap();
    let err = c.call(&stub, methods::INC, &()).unwrap_err();
    assert!(
        matches!(err, MageError::NotFound(_) | MageError::Unreachable { .. }),
        "volatile object must not be restored: {err:?}"
    );
    assert_eq!(rt.world().metrics().counter("snapshot_restores"), 0);
}

#[test]
fn restored_object_keeps_checkpointing_and_can_move_again() {
    let mut rt = world(&["a", "b", "c"]);
    let a = rt.session("a").unwrap();
    a.create(replicated_counter("b")).unwrap();
    let c = rt.session("c").unwrap();
    let stub = c
        .bind(&mage_core::attribute::Cle::new("TestObject", "counter"))
        .unwrap();
    let mut handle =
        mage_core::ObjectHandle::new(stub, Durability::Replicated { backups: 1 }, true);
    assert_eq!(c.call_handle(&mut handle, methods::INC, &()).unwrap(), 1);

    rt.crash("a").unwrap();
    assert_eq!(c.call_handle(&mut handle, methods::INC, &()).unwrap(), 2);
    assert_eq!(rt.node_name(handle.location()), Some("b"));

    // Move the restored object off its backup home; checkpoints resume
    // over the wire to the fixed backup (b), so a crash of the new host
    // restores again.
    let rev = Rev::new("TestObject", "counter", "c");
    let moved = c.bind(&rev).unwrap();
    assert_eq!(rt.node_name(moved.location()), Some("c"));
    assert_eq!(c.call(&moved, methods::INC, &()).unwrap(), 3);

    rt.crash("c").unwrap();
    // Drive from a session whose namespace is still up, through a stub
    // that last saw the object at the (now dead) node c: the engine walks
    // invoke → unreachable → re-find → dead end → restore at b.
    let b = rt.session("b").unwrap();
    let mut handle_b =
        mage_core::ObjectHandle::new(moved.clone(), Durability::Replicated { backups: 1 }, true);
    assert_eq!(b.call_handle(&mut handle_b, methods::INC, &()).unwrap(), 4);
    assert_eq!(rt.node_name(handle_b.location()), Some("b"));
    assert!(rt.world().metrics().counter("snapshot_restores") >= 2);
}

#[test]
fn snapshot_epochs_are_monotone_under_concurrent_moves() {
    let mut rt = Runtime::builder()
        .fast()
        .nodes(["a", "b", "c", "d"])
        .class(test_object_class())
        .trace(true)
        .build();
    rt.deploy_class("TestObject", "a").unwrap();
    let a = rt.session("a").unwrap();
    let mut handle = a.create(replicated_counter("b")).unwrap();

    // Interleave mutating calls with concurrent move attempts (both
    // sessions race REV binds to different targets while INCs pipeline).
    let c = rt.session("c").unwrap();
    for round in 0..4 {
        let to_c = c
            .bind_async(&Rev::new("TestObject", "counter", "c"))
            .unwrap();
        let to_d = a
            .bind_async(&Rev::new("TestObject", "counter", "d"))
            .unwrap();
        rt.run_until_idle().unwrap();
        let _ = (to_c.wait(), to_d.wait());
        let n = a.call_handle(&mut handle, methods::INC, &()).unwrap();
        assert_eq!(n, round + 1);
    }

    // Replay the trace: the epochs accepted at each backup node must be
    // strictly increasing per object name.
    let world = rt.world();
    let mut last: std::collections::BTreeMap<(usize, u64), (u64, u64)> = Default::default();
    let mut accepts = 0;
    for event in world.trace().events() {
        let TraceEvent::Note { node, text, .. } = event else {
            continue;
        };
        if let Some(rest) = text.strip_prefix("invariant:ckpt:") {
            let mut it = rest.split(':').filter_map(|f| f.parse::<u64>().ok());
            let (Some(name), Some(inc), Some(epoch)) = (it.next(), it.next(), it.next()) else {
                continue;
            };
            accepts += 1;
            let key = (node.index(), name);
            if let Some(prev) = last.get(&key) {
                assert!(
                    (inc, epoch) > *prev,
                    "backup accepted non-monotone snapshot (i{inc}, e{epoch}) after {prev:?}"
                );
            }
            last.insert(key, (inc, epoch));
        }
    }
    assert!(accepts >= 5, "moves and calls must generate checkpoints");
}

#[test]
fn recreated_lineage_supersedes_the_dead_predecessors_snapshots() {
    let mut rt = world(&["a", "b", "c"]);
    let a = rt.session("a").unwrap();
    let mut old = a.create(replicated_counter("b")).unwrap();
    // The predecessor runs its value (and snapshot epochs) up at b.
    for want in 1..=3 {
        assert_eq!(a.call_handle(&mut old, methods::INC, &()).unwrap(), want);
    }

    // Total loss of the predecessor, then a re-creation under the same
    // name and backup home: its early checkpoints (epoch 1, 2, …) must
    // supersede the dead lineage's higher epochs at b, not be refused
    // against them.
    rt.crash("a").unwrap();
    rt.restart("a").unwrap();
    rt.deploy_class("TestObject", "a").unwrap();
    let a = rt.session("a").unwrap();
    let mut fresh = a.create(replicated_counter("b")).unwrap();
    assert_eq!(a.call_handle(&mut fresh, methods::INC, &()).unwrap(), 1);

    // The new lineage's host dies too: the restore must serve the *new*
    // object's state (counter 1), never resurrect the predecessor's 3.
    let c = rt.session("c").unwrap();
    let mut theirs = mage_core::ObjectHandle::new(
        fresh.stub().clone(),
        Durability::Replicated { backups: 1 },
        true,
    );
    rt.crash("a").unwrap();
    assert_eq!(
        c.call_handle(&mut theirs, methods::INC, &()).unwrap(),
        2,
        "restore must serve the newest lineage, not the dead predecessor"
    );
    assert_eq!(rt.node_name(theirs.location()), Some("b"));
}

#[test]
fn replication_needs_two_namespaces() {
    let rt = world(&["solo"]);
    let s = rt.session("solo").unwrap();
    let err = s
        .create(
            ObjectSpec::new("x")
                .class("TestObject")
                .durability(Durability::Replicated { backups: 1 }),
        )
        .unwrap_err();
    assert!(matches!(err, MageError::BadPlan(_)));
}

#[test]
fn spec_can_place_birth_through_a_mobility_attribute() {
    let rt = world(&["lab", "sensor1", "sensor2"]);
    let lab = rt.session("lab").unwrap();
    let handle = lab
        .create(
            ObjectSpec::new("probe")
                .mobility(Rev::new("TestObject", "probe", "sensor1"))
                .durability(Durability::Replicated { backups: 1 })
                .backup("lab"),
        )
        .unwrap();
    assert_eq!(rt.node_name(handle.location()), Some("sensor1"));
    // The class rode the instantiate ladder to sensor1 and the creation
    // checkpoint landed at the lab.
    assert!(rt.world().metrics().counter("snapshots_stored") >= 1);
}
