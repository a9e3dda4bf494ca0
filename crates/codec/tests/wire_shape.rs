//! Golden tests pinning how byte strings and other sequences look on the
//! wire, plus a check that a hostile length prefix is refused before
//! anything is allocated for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mage_codec::{from_bytes, to_bytes, DecodeError};

/// Records the largest single allocation made by the current thread.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards unchanged to the system allocator; the
// bookkeeping only touches a const-initialised thread-local `Cell`.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(layout.size())));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

#[test]
fn byte_vector_is_length_then_raw_bytes() {
    assert_eq!(to_bytes(&vec![0x80u8, 0xff]).unwrap(), [0x02, 0x80, 0xff]);
    assert_eq!(to_bytes(&Vec::<u8>::new()).unwrap(), [0x00]);
}

#[test]
fn byte_slice_encodes_like_byte_vector() {
    let bytes: &[u8] = &[1, 0x80, 0xff];
    assert_eq!(
        to_bytes(&bytes).unwrap(),
        to_bytes(&bytes.to_vec()).unwrap()
    );
    assert_eq!(to_bytes(&bytes).unwrap(), [0x03, 0x01, 0x80, 0xff]);
}

#[test]
fn byte_array_is_a_tuple_of_varints() {
    // Fixed size, so no length prefix; each element is its own varint.
    assert_eq!(
        to_bytes(&[0x01u8, 0x7f, 0x80, 0xff]).unwrap(),
        [0x01, 0x7f, 0x80, 0x01, 0xff, 0x01]
    );
}

#[test]
fn u16_vector_stays_a_sequence_of_varints() {
    assert_eq!(
        to_bytes(&vec![1u16, 0x80, 0xffff]).unwrap(),
        [0x03, 0x01, 0x80, 0x01, 0xff, 0xff, 0x03]
    );
}

#[test]
fn hostile_byte_length_fails_without_allocating_it() {
    // The prefix claims 2^32 - 1 bytes; only two follow.
    let hostile = [0xff, 0xff, 0xff, 0xff, 0x0f, 1, 2];
    LARGEST.with(|largest| largest.set(0));
    assert_eq!(
        from_bytes::<Vec<u8>>(&hostile),
        Err(DecodeError::UnexpectedEof)
    );
    let largest = LARGEST.with(Cell::get);
    assert!(largest < 1024, "decoder allocated {largest} bytes");
}
