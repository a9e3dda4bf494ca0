//! Wire messages exchanged by RMI endpoints.
//!
//! Every datagram is one [`WireMsg`] frame. `object` and `method` travel
//! as interned [`NameId`]s with the backing string attached only on first
//! use per peer ([`NameRef`]), `args`/results are ref-counted [`Bytes`]
//! slices of the received frame (zero copy on decode), and encoding goes
//! through a caller-supplied scratch buffer: an encode allocates the
//! frame's own buffer, plus the marshalled fault of a fault response, and
//! nothing else (the per-op totals are tabled in the endpoint module).
//!
//! Every frame header carries incarnation epochs: each message states its
//! sender's epoch (a boot counter bumped on every crash), and responses
//! additionally echo the epoch the request claimed, so a reply addressed
//! to a previous incarnation of the caller is discarded instead of
//! colliding with the fresh incarnation's call-id space. Endpoints learn
//! peer restarts from these fields alone — no out-of-band failure oracle.
//! A frame whose leading byte is not [`MAGIC_V2_EPOCH`] is rejected with a
//! decode error.
//!
//! A request is `magic, kind, call_id, lag, sender_epoch, names-flags`,
//! the object id (then its string if flag bit 0 is set), the method id
//! (then its string if bit 1 is set) and the args. Ids, `call_id` and the
//! epoch are varints; strings and args are length-prefixed. `lag` states
//! the caller's oldest unanswered call, `call_id + 1 - lag` (its call
//! window's floor), or nothing when 0.

use bytes::Bytes;
use mage_codec::frame::{write_bytes, write_str, write_u64};
use mage_codec::{DecodeError, FrameReader};

use crate::error::Fault;
use crate::symbols::NameId;

/// First byte of every frame. A frame with any other leading byte fails
/// to decode.
pub const MAGIC_V2_EPOCH: u8 = 0xA4;

const KIND_CALL_REQ: u8 = 0;
const KIND_CALL_RSP: u8 = 1;

/// Names-flags bits: which of a request's two names carry their string.
const OBJECT_NAMED: u8 = 1;
const METHOD_NAMED: u8 = 2;

/// An interned name on the wire: the id always, the string only the first
/// time this id travels to a given peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameRef {
    /// The interned id.
    pub id: NameId,
    /// The backing string, present on first use per (sender, receiver)
    /// pair so the receiver can learn the binding.
    pub name: Option<String>,
}

impl NameRef {
    /// A bare id (the steady-state form).
    pub fn id(id: NameId) -> Self {
        NameRef { id, name: None }
    }

    /// An id with its first-use string attached.
    pub fn first_use(id: NameId, name: &str) -> Self {
        NameRef {
            id,
            name: Some(name.to_owned()),
        }
    }

    fn decode(r: &mut FrameReader<'_>, named: bool) -> Result<Self, DecodeError> {
        let id = NameId::from_raw(r.read_u32()?);
        let name = named.then(|| r.read_str()).transpose()?;
        Ok(NameRef {
            id,
            name: name.map(str::to_owned),
        })
    }
}

/// A v2 datagram between two endpoints.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// A method invocation request.
    CallReq {
        /// Client-unique call id (also the dedup key on the server).
        call_id: u64,
        /// The caller's oldest unanswered call id, as a distance back:
        /// that id is `call_id + 1 - lag`. 0 means no news.
        lag: u8,
        /// Sender incarnation at send time. Receivers learn peer restarts
        /// from this field alone.
        sender_epoch: u64,
        /// Interned name the target object is bound under.
        object: NameRef,
        /// Interned method name.
        method: NameRef,
        /// Marshalled arguments; on decode, a zero-copy slice of the frame.
        args: Bytes,
    },
    /// The response to a [`WireMsg::CallReq`].
    CallRsp {
        /// Echoed call id.
        call_id: u64,
        /// Responder incarnation at send time.
        sender_epoch: u64,
        /// Echo of the request's `sender_epoch`: lets the caller discard a
        /// reply addressed to a previous incarnation of itself (whose
        /// call-id space the fresh incarnation reuses from zero).
        req_epoch: u64,
        /// Marshalled result (zero-copy slice on decode) or server fault.
        result: Result<Bytes, Fault>,
    },
}

/// Encodes a v2 call request from borrowed parts into `scratch` (cleared
/// first) and returns the finished frame — the frame buffer is the only
/// allocation. `object_name`/`method_name` ride along only on first use.
#[allow(clippy::too_many_arguments)]
pub fn encode_call_req(
    scratch: &mut Vec<u8>,
    call_id: u64,
    lag: u8,
    sender_epoch: u64,
    object: NameId,
    object_name: Option<&str>,
    method: NameId,
    method_name: Option<&str>,
    args: &[u8],
) -> Bytes {
    scratch.clear();
    scratch.push(MAGIC_V2_EPOCH);
    scratch.push(KIND_CALL_REQ);
    write_u64(scratch, call_id);
    scratch.push(lag);
    write_u64(scratch, sender_epoch);
    let flag = |name: Option<&str>, bit| if name.is_some() { bit } else { 0 };
    scratch.push(flag(object_name, OBJECT_NAMED) | flag(method_name, METHOD_NAMED));
    encode_name(scratch, object, object_name);
    encode_name(scratch, method, method_name);
    write_bytes(scratch, args);
    Bytes::copy_from_slice(scratch)
}

/// Encodes a v2 call response from borrowed parts (see
/// [`encode_call_req`]).
pub fn encode_call_rsp(
    scratch: &mut Vec<u8>,
    call_id: u64,
    sender_epoch: u64,
    req_epoch: u64,
    result: Result<&[u8], &Fault>,
) -> Bytes {
    scratch.clear();
    scratch.push(MAGIC_V2_EPOCH);
    scratch.push(KIND_CALL_RSP);
    write_u64(scratch, call_id);
    write_u64(scratch, sender_epoch);
    write_u64(scratch, req_epoch);
    match result {
        Ok(payload) => {
            scratch.push(0);
            write_bytes(scratch, payload);
        }
        Err(fault) => {
            scratch.push(1);
            let fault_bytes = mage_codec::to_bytes(fault).expect("faults always encode");
            write_bytes(scratch, &fault_bytes);
        }
    }
    Bytes::copy_from_slice(scratch)
}

fn encode_name(out: &mut Vec<u8>, id: NameId, name: Option<&str>) {
    write_u64(out, u64::from(id.as_raw()));
    if let Some(name) = name {
        write_str(out, name);
    }
}

impl WireMsg {
    /// Encodes this message into `scratch` (cleared first) and returns the
    /// finished frame. The only allocation is the frame's own buffer;
    /// reusing `scratch` across calls amortises everything else.
    pub fn encode_with(&self, scratch: &mut Vec<u8>) -> Bytes {
        match self {
            WireMsg::CallReq {
                call_id,
                lag,
                sender_epoch,
                object,
                method,
                args,
            } => encode_call_req(
                scratch,
                *call_id,
                *lag,
                *sender_epoch,
                object.id,
                object.name.as_deref(),
                method.id,
                method.name.as_deref(),
                args,
            ),
            WireMsg::CallRsp {
                call_id,
                sender_epoch,
                req_epoch,
                result,
            } => encode_call_rsp(
                scratch,
                *call_id,
                *sender_epoch,
                *req_epoch,
                result.as_ref().map(|b| b.as_slice()),
            ),
        }
    }

    /// Encodes into a fresh scratch buffer (tests and cold paths).
    pub fn encode(&self) -> Bytes {
        self.encode_with(&mut Vec::with_capacity(64))
    }

    /// Decodes a v2 frame. Argument and result payloads are returned as
    /// ref-counted slices of `frame` — no bytes are copied.
    ///
    /// # Errors
    ///
    /// Returns a codec error for truncated, malformed or non-v2 frames.
    pub fn decode(frame: &Bytes) -> Result<Self, DecodeError> {
        let mut r = FrameReader::new(frame);
        let magic = r.read_u8()?;
        if magic != MAGIC_V2_EPOCH {
            return Err(DecodeError::Message(format!(
                "not a v2 frame (leading byte {magic:#04x}, expected {MAGIC_V2_EPOCH:#04x})"
            )));
        }
        let msg = match r.read_u8()? {
            KIND_CALL_REQ => {
                let call_id = r.read_u64()?;
                let lag = r.read_u8()?;
                let sender_epoch = r.read_u64()?;
                let flags = r.read_u8()?;
                if flags > OBJECT_NAMED | METHOD_NAMED {
                    return Err(DecodeError::InvalidOptionTag(flags));
                }
                WireMsg::CallReq {
                    call_id,
                    lag,
                    sender_epoch,
                    object: NameRef::decode(&mut r, flags & OBJECT_NAMED != 0)?,
                    method: NameRef::decode(&mut r, flags & METHOD_NAMED != 0)?,
                    args: r.read_bytes()?,
                }
            }
            KIND_CALL_RSP => {
                let call_id = r.read_u64()?;
                let sender_epoch = r.read_u64()?;
                let req_epoch = r.read_u64()?;
                let result = match r.read_u8()? {
                    0 => Ok(r.read_bytes()?),
                    1 => {
                        let fault_bytes = r.read_bytes()?;
                        Err(mage_codec::from_bytes::<Fault>(&fault_bytes)?)
                    }
                    other => return Err(DecodeError::InvalidOptionTag(other)),
                };
                WireMsg::CallRsp {
                    call_id,
                    sender_epoch,
                    req_epoch,
                    result,
                }
            }
            other => {
                return Err(DecodeError::Message(format!(
                    "unknown v2 message kind {other:#04x}"
                )))
            }
        };
        if r.is_empty() {
            Ok(msg)
        } else {
            Err(DecodeError::TrailingBytes(r.remaining()))
        }
    }

    /// The call id carried by this message.
    pub fn call_id(&self) -> u64 {
        match self {
            WireMsg::CallReq { call_id, .. } | WireMsg::CallRsp { call_id, .. } => *call_id,
        }
    }

    /// The sender incarnation stamped into this frame.
    pub fn sender_epoch(&self) -> u64 {
        match self {
            WireMsg::CallReq { sender_epoch, .. } | WireMsg::CallRsp { sender_epoch, .. } => {
                *sender_epoch
            }
        }
    }

    /// A static label for metrics — free to produce. Rich labels (with
    /// object/method names, see [`call_label`]) are only materialised when
    /// tracing is on.
    pub fn label(&self) -> &'static str {
        match self {
            WireMsg::CallReq { .. } => "call",
            WireMsg::CallRsp { result: Ok(_), .. } => "rsp:ok",
            WireMsg::CallRsp { result: Err(_), .. } => "rsp:fault",
        }
    }
}

/// Builds the rich trace label for a call: `"call:<object>.<method>"`.
/// Only worth its allocation when the world is tracing.
pub fn call_label(object: &str, method: &str) -> String {
    format!("call:{object}.{method}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v2_call_req_roundtrips_with_first_use_names() {
        let msg = WireMsg::CallReq {
            call_id: 42,
            lag: 3,
            sender_epoch: 7,
            object: NameRef::first_use(NameId::from_raw(3), "geoData"),
            method: NameRef::id(NameId::from_raw(9)),
            args: Bytes::from(vec![1, 2, 3]),
        };
        let frame = msg.encode();
        assert_eq!(WireMsg::decode(&frame).unwrap(), msg);
        assert_eq!(msg.sender_epoch(), 7);
    }

    #[test]
    fn v2_args_decode_zero_copy() {
        let msg = WireMsg::CallReq {
            call_id: 1,
            lag: 1,
            sender_epoch: 0,
            object: NameRef::id(NameId::from_raw(0)),
            method: NameRef::id(NameId::from_raw(1)),
            args: Bytes::from(vec![5; 32]),
        };
        let frame = msg.encode();
        let WireMsg::CallReq { args, .. } = WireMsg::decode(&frame).unwrap() else {
            panic!("wrong kind");
        };
        // The decoded args point into the frame's allocation.
        let frame_slice = frame.as_slice();
        let args_ptr = args.as_slice().as_ptr() as usize;
        let frame_range =
            frame_slice.as_ptr() as usize..frame_slice.as_ptr() as usize + frame_slice.len();
        assert!(
            frame_range.contains(&args_ptr),
            "args must borrow the frame"
        );
    }

    #[test]
    fn v2_rsp_roundtrips_both_arms() {
        let ok = WireMsg::CallRsp {
            call_id: 7,
            sender_epoch: 2,
            req_epoch: 5,
            result: Ok(Bytes::from(vec![9])),
        };
        let fault = WireMsg::CallRsp {
            call_id: 8,
            sender_epoch: 0,
            req_epoch: 0,
            result: Err(Fault::ClassMissing("C".into())),
        };
        assert_eq!(WireMsg::decode(&ok.encode()).unwrap(), ok);
        assert_eq!(WireMsg::decode(&fault.encode()).unwrap(), fault);
    }

    #[test]
    fn v2_truncated_frames_error_not_panic() {
        let frame = WireMsg::CallReq {
            call_id: 3,
            lag: 0,
            sender_epoch: u64::MAX,
            object: NameRef::first_use(NameId::from_raw(0), "obj"),
            method: NameRef::id(NameId::from_raw(1)),
            args: Bytes::from(vec![1, 2, 3, 4]),
        }
        .encode();
        for cut in 0..frame.len() {
            let truncated = frame.slice(..cut);
            assert!(
                WireMsg::decode(&truncated).is_err(),
                "truncation at {cut} must error"
            );
        }
    }

    /// The request layout, byte for byte. Folding the two per-name option
    /// tags into one names-flags byte pays for `lag`, so each frame is as
    /// long as the same fields' encoding under the previous magic, `0xA3`,
    /// which had no `lag` and a tag byte after each name id.
    #[test]
    fn call_req_layout_is_pinned() {
        let steady = WireMsg::CallReq {
            call_id: 300,
            lag: 3,
            sender_epoch: 1,
            object: NameRef::id(NameId::from_raw(5)),
            method: NameRef::id(NameId::from_raw(9)),
            args: Bytes::from(vec![7, 7]),
        }
        .encode();
        #[rustfmt::skip]
        let expected = [
            0xA4, 0, 0xAC, 0x02, // magic, kind, call_id 300
            3, 1, 0,             // lag, sender_epoch, names-flags
            5, 9,                // object id, method id
            2, 7, 7,             // args
        ];
        assert_eq!(steady.as_slice(), expected);
        #[rustfmt::skip]
        let before = [0xA3, 0, 0xAC, 0x02, 1, 5, 0, 9, 0, 2, 7, 7];
        assert_eq!(steady.len(), before.len());

        let first_use = WireMsg::CallReq {
            call_id: 0,
            lag: 1,
            sender_epoch: 0,
            object: NameRef::first_use(NameId::from_raw(3), "geo"),
            method: NameRef::first_use(NameId::from_raw(9), "run"),
            args: Bytes::new(),
        }
        .encode();
        #[rustfmt::skip]
        let expected = [
            0xA4, 0, 0,                 // magic, kind, call_id 0
            1, 0, 3,                    // lag, sender_epoch, both names attached
            3, 3, b'g', b'e', b'o',     // object id and its string
            9, 3, b'r', b'u', b'n',     // method id and its string
            0,                          // no args
        ];
        assert_eq!(first_use.as_slice(), expected);
        #[rustfmt::skip]
        let before = [
            0xA3, 0, 0, 0,
            3, 1, 3, b'g', b'e', b'o',
            9, 1, 3, b'r', b'u', b'n',
            0,
        ];
        assert_eq!(first_use.len(), before.len());
    }

    #[test]
    fn names_flags_above_3_are_rejected() {
        let mut frame = WireMsg::CallReq {
            call_id: 0,
            lag: 1,
            sender_epoch: 0,
            object: NameRef::id(NameId::from_raw(0)),
            method: NameRef::id(NameId::from_raw(1)),
            args: Bytes::new(),
        }
        .encode()
        .to_vec();
        for flags in 4..=u8::MAX {
            frame[5] = flags;
            assert_eq!(
                WireMsg::decode(&Bytes::from(frame.clone())),
                Err(DecodeError::InvalidOptionTag(flags))
            );
        }
    }
}
