//! Roundtrip tests for the MAGE wire format, including property-based
//! coverage of the core serde data model.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use proptest::prelude::*;
use serde::{Deserialize, Serialize};

fn roundtrip<T>(value: &T) -> T
where
    T: Serialize + serde::de::DeserializeOwned,
{
    let bytes = mage_codec::to_bytes(value).expect("encode");
    mage_codec::from_bytes(&bytes).expect("decode")
}

#[derive(Serialize, Deserialize, Debug, Clone, PartialEq)]
enum Message {
    Ping,
    Find { name: String, hops: u8 },
    Move(String, u64),
    Payload(Vec<u8>),
}

#[derive(Serialize, Deserialize, Debug, Clone, PartialEq)]
struct Envelope {
    id: u64,
    source: Option<String>,
    body: Message,
    tags: BTreeMap<String, i32>,
    route: Vec<(u16, u16)>,
}

#[test]
fn struct_with_nested_enum_roundtrips() {
    let env = Envelope {
        id: 42,
        source: Some("nodeA".into()),
        body: Message::Find {
            name: "geoData".into(),
            hops: 3,
        },
        tags: BTreeMap::from([("zone".into(), -7), ("prio".into(), 2)]),
        route: vec![(1, 2), (2, 5)],
    };
    assert_eq!(roundtrip(&env), env);
}

#[test]
fn unit_variant_roundtrips() {
    assert_eq!(roundtrip(&Message::Ping), Message::Ping);
}

#[test]
fn tuple_variant_roundtrips() {
    let m = Message::Move("x".into(), u64::MAX);
    assert_eq!(roundtrip(&m), m);
}

#[test]
fn empty_collections_roundtrip() {
    let env = Envelope {
        id: 0,
        source: None,
        body: Message::Payload(vec![]),
        tags: BTreeMap::new(),
        route: vec![],
    };
    assert_eq!(roundtrip(&env), env);
}

#[test]
fn nested_options_roundtrip() {
    let v: Option<Option<u8>> = Some(None);
    assert_eq!(roundtrip(&v), v);
    let v: Option<Option<u8>> = Some(Some(9));
    assert_eq!(roundtrip(&v), v);
}

#[test]
fn large_byte_payload_roundtrips() {
    let blob: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    assert_eq!(roundtrip(&blob), blob);
}

#[test]
fn borrowed_byte_slice_roundtrips_bytes_above_0x7f() {
    // A byte >= 0x80 is a two-byte varint, so encoding the slice element
    // by element while decoding it as a byte string leaves trailing bytes.
    let bytes: &[u8] = &[1, 0x80, 0xff];
    let wire = mage_codec::to_bytes(&bytes).unwrap();
    assert_eq!(mage_codec::from_bytes::<&[u8]>(&wire), Ok(bytes));
}

#[derive(Serialize, Deserialize, Debug, Clone, PartialEq)]
struct Blob {
    id: u32,
    data: Vec<u8>,
    tail: u16,
}

#[test]
fn deeply_nested_structures_roundtrip() {
    let v: Vec<Vec<Vec<u16>>> = vec![vec![vec![1, 2], vec![]], vec![vec![3]]];
    assert_eq!(roundtrip(&v), v);
}

#[test]
fn i128_and_u128_roundtrip() {
    for v in [i128::MIN, -1, 0, 1, i128::MAX] {
        assert_eq!(roundtrip(&v), v);
    }
    for v in [0u128, 1, u128::MAX, u128::from(u64::MAX) + 1] {
        assert_eq!(roundtrip(&v), v);
    }
}

#[test]
fn char_boundaries_roundtrip() {
    for c in ['\0', 'a', 'é', '中', '\u{10FFFF}'] {
        assert_eq!(roundtrip(&c), c);
    }
}

#[test]
fn float_specials_roundtrip() {
    for v in [
        0.0f64,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
    ] {
        assert_eq!(roundtrip(&v).to_bits(), v.to_bits());
    }
    let nan = roundtrip(&f64::NAN);
    assert!(nan.is_nan());
}

proptest! {
    #[test]
    fn prop_u64_roundtrips(v in any::<u64>()) {
        prop_assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn prop_i64_roundtrips(v in any::<i64>()) {
        prop_assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn prop_strings_roundtrip(s in ".{0,64}") {
        prop_assert_eq!(roundtrip(&s), s);
    }

    #[test]
    fn prop_byte_vectors_roundtrip(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
        quad in (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255),
        present in any::<bool>(),
        nested in proptest::collection::vec(proptest::collection::vec(0u8..=255, 0..40), 0..8),
    ) {
        prop_assert_eq!(roundtrip(&bytes), bytes.clone());

        let slice: &[u8] = &bytes;
        let wire = mage_codec::to_bytes(&slice).unwrap();
        prop_assert_eq!(mage_codec::from_bytes::<&[u8]>(&wire).unwrap(), slice);

        let deque: VecDeque<u8> = bytes.iter().copied().collect();
        prop_assert_eq!(roundtrip(&deque), deque);

        let set: BTreeSet<u8> = bytes.iter().copied().collect();
        prop_assert_eq!(roundtrip(&set), set);

        let array = [quad.0, quad.1, quad.2, quad.3];
        prop_assert_eq!(roundtrip(&array), array);

        let option = present.then(|| bytes.clone());
        prop_assert_eq!(roundtrip(&option), option);

        prop_assert_eq!(roundtrip(&nested), nested.clone());

        let blob = Blob { id: quad.0.into(), data: bytes.clone(), tail: u16::MAX };
        prop_assert_eq!(roundtrip(&blob), blob);
    }

    #[test]
    fn prop_maps_roundtrip(m in proptest::collection::btree_map(any::<u32>(), any::<i16>(), 0..32)) {
        prop_assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn prop_tuples_roundtrip(t in any::<(bool, u8, i32, Option<u16>)>()) {
        prop_assert_eq!(roundtrip(&t), t);
    }

    #[test]
    fn prop_f64_roundtrips_bitexact(v in any::<f64>()) {
        let bytes = mage_codec::to_bytes(&v).unwrap();
        let back: f64 = mage_codec::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn prop_decoder_never_panics_on_noise(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        // Decoding random noise as a complex type must error or succeed,
        // never panic or loop.
        let _ = mage_codec::from_bytes::<Envelope>(&bytes);
    }

    #[test]
    fn prop_varint_encoding_is_minimal(v in any::<u64>()) {
        let mut buf = Vec::new();
        mage_codec::varint::encode_u64(v, &mut buf);
        let expected = if v == 0 { 1 } else { (70 - v.leading_zeros() as usize) / 7 };
        prop_assert_eq!(buf.len(), expected.max(1));
    }
}
