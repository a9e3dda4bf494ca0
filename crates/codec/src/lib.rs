//! Compact binary marshalling for MAGE.
//!
//! The paper's MAGE runtime rides on Java RMI, whose parameter marshalling is
//! Java object serialization. This crate is the Rust stand-in: a small,
//! non-self-describing binary [serde](https://serde.rs) format used for every
//! payload that crosses a (simulated) namespace boundary — method arguments,
//! results, migrated object state and class descriptors.
//!
//! Format summary:
//!
//! * unsigned integers: LEB128 varints; signed integers: zigzag varints
//! * `f32`/`f64`: little-endian IEEE-754 bytes
//! * `bool` and `Option` tags: one byte (`0`/`1`)
//! * strings, byte strings, sequences, maps: varint length prefix
//! * `Vec<u8>`, `[u8]` and `&[u8]`: byte strings (length, then the raw
//!   bytes), never a sequence of per-byte varints
//! * structs and tuples: fields back-to-back, no framing; a fixed-size
//!   `[u8; N]` is a tuple of `N` varints
//! * enums: varint variant index followed by the payload
//!
//! The format is *not* self-describing: decoding drives from the target type,
//! exactly like an RMI skeleton unmarshalling against a known method
//! signature.
//!
//! # Examples
//!
//! ```
//! use serde::{Deserialize, Serialize};
//!
//! #[derive(Serialize, Deserialize, PartialEq, Debug)]
//! struct GeoSample { sensor: String, depth_m: u32, porosity: f64 }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sample = GeoSample { sensor: "sensor1".into(), depth_m: 1200, porosity: 0.31 };
//! let wire = mage_codec::to_bytes(&sample)?;
//! let back: GeoSample = mage_codec::from_bytes(&wire)?;
//! assert_eq!(back, sample);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod frame;
pub mod varint;

mod de;
mod ser;

pub use de::{from_bytes, from_bytes_prefix, Deserializer};
pub use error::{DecodeError, EncodeError};
pub use frame::FrameReader;
pub use ser::{to_bytes, to_bytes_in};
