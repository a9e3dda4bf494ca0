//! Wall-clock cost of the marshalling substrate (`mage-codec`), the layer
//! whose simulated cost dominates every row of Table 3 — plus the
//! owned-vs-borrowed decode comparison on the CallReq shape and the
//! v1-vs-v2 wire-format comparison that motivated PR 2's zero-copy path.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

/// The CallReq shape with every field owned: decoding allocates the two
/// name strings and copies the argument payload.
type CallFrameOwned = (u64, String, String, Vec<u8>);

/// The same bytes decoded zero-copy: names and args borrow the input.
type CallFrameBorrowed<'a> = (u64, &'a str, &'a str, &'a [u8]);

fn encoded_frame(args_len: usize) -> Vec<u8> {
    let value = (
        42u64,
        "geoData".to_owned(),
        "filterData".to_owned(),
        vec![7u8; args_len],
    );
    mage_codec::to_bytes(&value).unwrap()
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    for size in [16usize, 1024, 65_536] {
        let encoded = encoded_frame(size);
        let value: CallFrameOwned = mage_codec::from_bytes(&encoded).unwrap();
        group.bench_function(format!("encode_{size}B"), |b| {
            b.iter(|| mage_codec::to_bytes(std::hint::black_box(&value)).unwrap())
        });
        group.bench_function(format!("decode_owned_{size}B"), |b| {
            b.iter_batched(
                || encoded.clone(),
                |bytes| {
                    mage_codec::from_bytes::<CallFrameOwned>(std::hint::black_box(&bytes)).unwrap()
                },
                BatchSize::SmallInput,
            )
        });
        // The zero-copy path this PR's wire format rides on: object,
        // method and args all decode as borrowed slices of the frame.
        group.bench_function(format!("decode_borrowed_{size}B"), |b| {
            b.iter_batched(
                || encoded.clone(),
                |bytes| {
                    let decoded: CallFrameBorrowed<'_> =
                        mage_codec::from_bytes(std::hint::black_box(&bytes)).unwrap();
                    (decoded.0, decoded.1.len(), decoded.2.len(), decoded.3.len())
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// v1 (serde, owned strings + copied args) against v2 (interned ids +
/// `Bytes`-sliced args) on the same logical CallReq.
fn bench_wire_formats(c: &mut Criterion) {
    use bytes::Bytes;
    use mage_rmi::wire::{Message, NameRef, WireMsg};
    use mage_rmi::NameId;

    let mut group = c.benchmark_group("wire");
    for size in [16usize, 1024, 65_536] {
        let v1 = Message::CallReq {
            call_id: 42,
            object: "geoData".into(),
            method: "filterData".into(),
            args: vec![7u8; size],
        };
        let v1_frame = v1.encode();
        let v2 = WireMsg::CallReq {
            call_id: 42,
            sender_epoch: 1,
            object: NameRef::id(NameId::from_raw(3)),
            method: NameRef::id(NameId::from_raw(9)),
            args: Bytes::from(vec![7u8; size]),
        };
        let v2_frame = v2.encode();
        group.bench_function(format!("v1_decode_{size}B"), |b| {
            b.iter(|| Message::decode(std::hint::black_box(&v1_frame)).unwrap())
        });
        group.bench_function(format!("v2_decode_{size}B"), |b| {
            b.iter(|| WireMsg::decode(std::hint::black_box(&v2_frame)).unwrap())
        });
        let mut scratch = Vec::with_capacity(v2_frame.len());
        group.bench_function(format!("v2_encode_{size}B"), |b| {
            b.iter(|| WireMsg::encode_with(std::hint::black_box(&v2), &mut scratch))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codec, bench_wire_formats);
criterion_main!(benches);
