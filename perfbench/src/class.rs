//! The benchmark's own mobile-object class: a counter with an opaque
//! state blob, an increment, a read, and an echo of its argument bytes.

use mage_core::object::{args_as, result_from};
use mage_core::{ClassDef, Method, MobileEnv, MobileObject};
use mage_rmi::Fault;
use serde::{Deserialize, Serialize};

/// Class name under which [`class`] registers.
pub const CLASS: &str = "BenchObj";

/// Increment the counter, returning the new value.
pub const INC: Method<(), i64> = Method::new("inc");
/// Read the counter.
pub const GET: Method<(), i64> = Method::new("get");
/// Return the argument bytes unchanged (the counter is untouched).
pub const ECHO: Method<Vec<u8>, Vec<u8>> = Method::new("echo");

/// Object state: the counter plus a blob that rides along on every move
/// and checkpoint (its size sets the state-transfer cost).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BenchState {
    /// The counter.
    pub value: i64,
    /// Opaque payload carried as object state.
    pub blob: Vec<u8>,
}

impl MobileObject for BenchState {
    fn class_name(&self) -> &str {
        CLASS
    }

    fn snapshot(&self) -> Result<Vec<u8>, Fault> {
        result_from(self)
    }

    fn invoke(
        &mut self,
        method: &str,
        args: &[u8],
        _env: &mut MobileEnv<'_>,
    ) -> Result<Vec<u8>, Fault> {
        match method {
            "inc" => {
                self.value += 1;
                result_from(&self.value)
            }
            "get" => result_from(&self.value),
            "echo" => {
                let bytes: Vec<u8> = args_as(args)?;
                result_from(&bytes)
            }
            other => Err(Fault::NoSuchMethod {
                object: CLASS.into(),
                method: other.into(),
            }),
        }
    }
}

/// The class definition (2 KiB of simulated code, like the paper's
/// minimal test object).
pub fn class() -> ClassDef {
    ClassDef::new(CLASS, 2_048, |state| {
        let obj: BenchState = if state.is_empty() {
            BenchState::default()
        } else {
            args_as(state)?
        };
        Ok(Box::new(obj))
    })
}

/// `len` pseudo-random bytes (splitmix64), the same for every run seed:
/// the codec writes each byte as a varint, so the content sets the wire
/// size, and content drawn from the run seed would add spread to
/// `bytes_per_op` without adding information. `variant` tells apart the
/// payloads of different objects.
pub fn payload(len: usize, variant: u64) -> Vec<u8> {
    let mut state = variant;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out.truncate(len);
    out
}
