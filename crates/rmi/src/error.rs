//! Error types for the RMI substrate.

use std::error::Error;
use std::fmt;

use mage_sim::NodeId;
use serde::{Deserialize, Serialize};

/// A failure raised on the *server* side of a call and marshalled back to
/// the client (the analogue of a Java `RemoteException` cause).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Fault {
    /// No object is bound under the requested name.
    NotBound(String),
    /// The object exists but does not implement the requested method.
    NoSuchMethod {
        /// Bound object name.
        object: String,
        /// Requested method.
        method: String,
    },
    /// The requested class is not available in the target namespace.
    ClassMissing(String),
    /// The server's policy refused the request.
    AccessDenied(String),
    /// While serving the request the server had to contact another peer
    /// and exhausted its retry budget doing so (the peer crashed, is
    /// partitioned away, or is silently discarding traffic).
    Unreachable {
        /// Raw node id of the peer the server could not reach.
        peer: u32,
    },
    /// The call named an object that exists under the requested name but
    /// is a different incarnation than the caller expected: the original
    /// died (or was replaced) and something else now answers to the name.
    /// Carries the incarnation actually hosted so the caller can decide to
    /// rebind explicitly instead of silently talking to the impostor.
    StaleIdentity {
        /// Object name the call was addressed to.
        object: String,
        /// Incarnation the caller expected (from its stub or cache).
        expected: u64,
        /// Incarnation actually hosted under the name right now.
        actual: u64,
    },
    /// Transport-level NACK: the request carried a bare interned name id
    /// this endpoint has never learned (the first-use carrier frame was
    /// lost, or this endpoint restarted and lost its learned table). The
    /// caller re-sends the request with the backing strings attached.
    /// Never held in a call window — it is not an execution outcome.
    UnknownName {
        /// The raw wire id that failed to translate.
        id: u32,
    },
    /// Application-level failure raised by the object implementation.
    App(String),
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::NotBound(name) => write!(f, "no object bound under {name:?}"),
            Fault::NoSuchMethod { object, method } => {
                write!(f, "object {object:?} has no method {method:?}")
            }
            Fault::ClassMissing(name) => write!(f, "class {name:?} not present"),
            Fault::AccessDenied(why) => write!(f, "access denied: {why}"),
            Fault::Unreachable { peer } => {
                write!(f, "server could not reach peer n{peer}")
            }
            Fault::StaleIdentity {
                object,
                expected,
                actual,
            } => write!(
                f,
                "object {object:?} is incarnation {actual}, caller expected {expected}"
            ),
            Fault::UnknownName { id } => {
                write!(
                    f,
                    "interned name id {id} unknown here (re-send with string)"
                )
            }
            Fault::App(msg) => write!(f, "application fault: {msg}"),
        }
    }
}

impl Error for Fault {}

/// A failure observed on the *client* side of a call.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RmiError {
    /// The server answered with a fault.
    Fault(Fault),
    /// A single transmission went unanswered within its timeout (only
    /// surfaced by callers that opt out of retransmission).
    Timeout {
        /// Number of transmissions attempted (1 + retries).
        attempts: u32,
    },
    /// The whole retry budget was exhausted without any response: the
    /// peer crashed, is partitioned away, or is silently dropping our
    /// traffic. Crash-stop peers cannot be told apart from partitioned
    /// ones from here — both surface as this error, delivered to
    /// [`App::on_reply`](crate::App::on_reply) instead of leaving the
    /// call pending forever.
    PeerUnreachable {
        /// The peer that never answered.
        peer: NodeId,
        /// Number of transmissions attempted (1 + retries).
        attempts: u32,
    },
    /// The response payload failed to decode.
    Decode(String),
    /// The request arguments failed to encode.
    Encode(String),
}

impl fmt::Display for RmiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RmiError::Fault(fault) => write!(f, "remote fault: {fault}"),
            RmiError::Timeout { attempts } => {
                write!(f, "call timed out after {attempts} attempts")
            }
            RmiError::PeerUnreachable { peer, attempts } => {
                write!(f, "peer {peer} unreachable after {attempts} attempts")
            }
            RmiError::Decode(msg) => write!(f, "response decode failed: {msg}"),
            RmiError::Encode(msg) => write!(f, "argument encode failed: {msg}"),
        }
    }
}

impl Error for RmiError {}

impl From<Fault> for RmiError {
    fn from(fault: Fault) -> Self {
        RmiError::Fault(fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_roundtrip_through_codec() {
        let faults = [
            Fault::NotBound("geoData".into()),
            Fault::NoSuchMethod {
                object: "o".into(),
                method: "m".into(),
            },
            Fault::ClassMissing("C".into()),
            Fault::AccessDenied("untrusted".into()),
            Fault::Unreachable { peer: 3 },
            Fault::StaleIdentity {
                object: "shared".into(),
                expected: 4,
                actual: 9,
            },
            Fault::UnknownName { id: 17 },
            Fault::App("boom".into()),
        ];
        for fault in faults {
            let bytes = mage_codec::to_bytes(&fault).unwrap();
            let back: Fault = mage_codec::from_bytes(&bytes).unwrap();
            assert_eq!(back, fault);
        }
    }

    #[test]
    fn display_messages_are_informative() {
        assert!(Fault::NotBound("x".into()).to_string().contains("x"));
        assert!(RmiError::Timeout { attempts: 3 }.to_string().contains('3'));
        let unreachable = RmiError::PeerUnreachable {
            peer: NodeId::from_raw(7),
            attempts: 4,
        };
        assert!(unreachable.to_string().contains("n7"));
        assert!(unreachable.to_string().contains("unreachable"));
        assert!(Fault::Unreachable { peer: 7 }.to_string().contains("n7"));
        let err: RmiError = Fault::App("bad".into()).into();
        assert!(err.to_string().contains("bad"));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Fault>();
        assert_send_sync::<RmiError>();
    }
}
