//! Property tests of the v2 wire format: round-trips over arbitrary
//! messages (interned ids, first-use string shipment, epochs, payloads),
//! clean rejection of truncated/hostile frames, and rejection of frames
//! with a foreign leading byte.

use bytes::Bytes;
use mage_rmi::wire::{NameRef, WireMsg, MAGIC_V2_EPOCH};
use mage_rmi::{Fault, NameId};
use proptest::prelude::*;

fn name_ref(id: u32, name: Option<String>) -> NameRef {
    match name {
        Some(name) => NameRef::first_use(NameId::from_raw(id), &name),
        None => NameRef::id(NameId::from_raw(id)),
    }
}

proptest! {
    /// Any CallReq — with or without first-use strings, any sender epoch —
    /// round-trips exactly, and the decoded args match byte-for-byte.
    #[test]
    fn prop_call_req_roundtrips(
        call_id in any::<u64>(),
        sender_epoch in any::<u64>(),
        object_id in any::<u32>(),
        object_name in any::<Option<String>>(),
        method_id in any::<u32>(),
        method_name in any::<Option<String>>(),
        args in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let msg = WireMsg::CallReq {
            call_id,
            sender_epoch,
            object: name_ref(object_id, object_name),
            method: name_ref(method_id, method_name),
            args: Bytes::from(args),
        };
        let frame = msg.encode();
        let decoded = WireMsg::decode(&frame).unwrap();
        prop_assert_eq!(decoded.sender_epoch(), sender_epoch);
        prop_assert_eq!(decoded, msg);
    }

    /// Both response arms round-trip, with both epoch fields (the
    /// responder's own and the echoed request epoch) intact.
    #[test]
    fn prop_call_rsp_roundtrips(
        call_id in any::<u64>(),
        sender_epoch in any::<u64>(),
        req_epoch in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        is_fault in any::<bool>(),
        fault_text in any::<String>(),
    ) {
        let result = if is_fault {
            Err(Fault::App(fault_text))
        } else {
            Ok(Bytes::from(payload))
        };
        let msg = WireMsg::CallRsp { call_id, sender_epoch, req_epoch, result };
        let frame = msg.encode();
        let decoded = WireMsg::decode(&frame).unwrap();
        prop_assert_eq!(decoded.sender_epoch(), sender_epoch);
        prop_assert_eq!(decoded, msg);
    }

    /// Every strict prefix of a valid frame errors instead of panicking
    /// or misdecoding — including prefixes that cut through the epoch
    /// fields in the header.
    #[test]
    fn prop_truncated_frames_error(
        call_id in any::<u64>(),
        sender_epoch in any::<u64>(),
        object_name in any::<Option<String>>(),
        args in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let frame = WireMsg::CallReq {
            call_id,
            sender_epoch,
            object: name_ref(7, object_name),
            method: NameRef::id(NameId::from_raw(9)),
            args: Bytes::from(args),
        }
        .encode();
        for cut in 0..frame.len() {
            prop_assert!(WireMsg::decode(&frame.slice(..cut)).is_err(), "cut at {}", cut);
        }
        let rsp = WireMsg::CallRsp {
            call_id,
            sender_epoch,
            req_epoch: sender_epoch.wrapping_add(1),
            result: Ok(Bytes::from_static(b"x")),
        }
        .encode();
        for cut in 0..rsp.len() {
            prop_assert!(WireMsg::decode(&rsp.slice(..cut)).is_err(), "rsp cut at {}", cut);
        }
    }

    /// Hostile random bytes never panic the v2 decoder; anything that
    /// happens to start with the magic byte either decodes or errors —
    /// including frames whose epoch fields are garbage varints.
    #[test]
    fn prop_hostile_frames_never_panic(
        mut noise in proptest::collection::vec(any::<u8>(), 0..128),
        force_magic in any::<bool>(),
    ) {
        if force_magic {
            if noise.is_empty() {
                noise.push(MAGIC_V2_EPOCH);
            } else {
                noise[0] = MAGIC_V2_EPOCH;
            }
        }
        let _ = WireMsg::decode(&Bytes::from(noise));
    }

    /// Corrupting the epoch region of a valid frame must never let a
    /// frame decode with *trailing* garbage accepted: either it decodes
    /// as a (different) well-formed message or it errors — no panics.
    #[test]
    fn prop_mangled_epoch_bytes_never_panic(
        call_id in any::<u64>(),
        sender_epoch in any::<u64>(),
        at_byte in 2usize..12,
        value in any::<u8>(),
    ) {
        let mut frame = WireMsg::CallReq {
            call_id,
            sender_epoch,
            object: NameRef::id(NameId::from_raw(1)),
            method: NameRef::id(NameId::from_raw(2)),
            args: Bytes::from_static(b"abc"),
        }
        .encode()
        .to_vec();
        if at_byte < frame.len() {
            frame[at_byte] = value;
        }
        let _ = WireMsg::decode(&Bytes::from(frame));
    }

    /// A frame whose leading byte is not [`MAGIC_V2_EPOCH`] is rejected
    /// with an error, never a panic, even when the rest of it is a
    /// well-formed message. The retired formats' leading bytes — v1's
    /// variant indices `0x00`/`0x01` and the epoch-less v2 header `0xA2` —
    /// are checked on every case, next to an arbitrary foreign byte.
    #[test]
    fn prop_foreign_leading_byte_is_rejected(
        lead in any::<u8>(),
        call_id in any::<u64>(),
        sender_epoch in any::<u64>(),
        object_name in any::<Option<String>>(),
        args in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut frame = WireMsg::CallReq {
            call_id,
            sender_epoch,
            object: name_ref(0, object_name),
            method: NameRef::id(NameId::from_raw(1)),
            args: Bytes::from(args),
        }
        .encode()
        .to_vec();
        let foreign = [0x00, 0x01, 0xA2, lead].into_iter();
        for lead in foreign.filter(|b| *b != MAGIC_V2_EPOCH) {
            frame[0] = lead;
            prop_assert!(
                WireMsg::decode(&Bytes::from(frame.clone())).is_err(),
                "leading byte {:#04x} must be rejected",
                lead
            );
        }
    }
}

/// Post-restart re-shipment, now purely message-driven: the client has no
/// oracle telling it the server restarted, so its first post-restart
/// request goes out with bare ids; the fresh incarnation answers with an
/// `UnknownName` NACK (stamped with its new epoch, which purges the
/// client's per-peer state), and the client re-sends the same call with
/// the first-use strings attached — observable on the wire as one extra
/// request whose frame grows back to first-contact size. The call still
/// succeeds against the fresh incarnation.
#[test]
fn post_restart_requests_reship_name_strings() {
    use mage_rmi::{client_endpoint, drive_call, server_endpoint, Config, Fault, ObjectEnv};
    use mage_sim::{TraceEvent, TraceMode, World};

    let cfg = Config::zero_cost();
    let mut world = World::new(11);
    world.set_trace_mode(TraceMode::Full);
    let client = world.add_node("client", client_endpoint(cfg));
    let server = world.add_node_with("server", move || {
        Box::new(server_endpoint(
            cfg,
            "echo",
            Box::new(
                |_m: &str, _a: &[u8], _e: &mut ObjectEnv<'_>| -> Result<Vec<u8>, Fault> {
                    Ok(vec![1])
                },
            ),
        ))
    });

    let call = |world: &mut World| {
        drive_call(world, client, server, "echo", "poke", vec![])
            .expect("world healthy")
            .expect("call succeeds")
    };
    call(&mut world); // first contact: strings ship, reply acks them
    call(&mut world); // steady state: bare ids only
    world.crash(server);
    world.restart(server);
    call(&mut world); // bare ids → UnknownName NACK → re-ship → success

    let request_sizes: Vec<u64> = world
        .trace()
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Send {
                from, label, bytes, ..
            } if *from == client && label.starts_with("call") => Some(*bytes),
            _ => None,
        })
        .collect();
    // Four requests: the post-restart call costs one NACKed bare-id
    // attempt plus the string-carrying re-send.
    assert_eq!(request_sizes.len(), 4, "{request_sizes:?}");
    assert!(
        request_sizes[1] < request_sizes[0],
        "steady-state frame must shed the strings: {request_sizes:?}"
    );
    assert_eq!(
        request_sizes[2], request_sizes[1],
        "first post-restart attempt is still bare ids: {request_sizes:?}"
    );
    assert_eq!(
        request_sizes[3], request_sizes[0],
        "the NACKed call must be re-sent with first-use strings: {request_sizes:?}"
    );
    // The NACK itself is visible on the wire.
    let nacks = world
        .trace()
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Send { label, .. } if label == "rsp:unknown-name"))
        .count();
    assert_eq!(nacks, 1, "exactly one UnknownName NACK expected");
}
