//! Typed marshalling of call arguments and results.

use serde::Serialize;

/// Encodes typed arguments for a call.
///
/// # Errors
///
/// Propagates codec errors (e.g. unknown-length sequences).
pub fn encode_args<T: Serialize>(args: &T) -> Result<Vec<u8>, mage_codec::EncodeError> {
    mage_codec::to_bytes(args)
}

/// Decodes a typed result from a call's return payload.
///
/// # Errors
///
/// Propagates codec errors on malformed payloads.
pub fn decode_result<T: serde::de::DeserializeOwned>(
    bytes: &[u8],
) -> Result<T, mage_codec::DecodeError> {
    mage_codec::from_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_arg_helpers_roundtrip() {
        let args = ("filter", 3u32);
        let bytes = encode_args(&args).unwrap();
        let back: (String, u32) = decode_result(&bytes).unwrap();
        assert_eq!(back, ("filter".to_owned(), 3));
    }
}
