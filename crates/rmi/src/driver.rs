//! A minimal [`App`] that turns driver commands into plain RMI calls.
//!
//! This is the pure-RMI client used as the paper's *Java's RMI* baseline:
//! no MAGE machinery, just a stub call to a named object on a known node.

use bytes::Bytes;
use mage_codec::DecodeError;
use mage_sim::{NodeId, OpId, SimError, World};

use crate::endpoint::{App, Config, Endpoint, Env};
use crate::error::RmiError;
use crate::object::RemoteObject;

/// Driver command understood by a [`client_endpoint`].
///
/// Every field borrows: [`drive_call`] encodes one straight from its
/// arguments, and the client decodes it in place from the injected
/// payload, so neither side copies the names or the arguments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverCmd<'a> {
    /// Raw [`OpId`] to complete when the call finishes.
    pub op: u64,
    /// Raw id of the target node.
    pub to: u32,
    /// Name of the remote object.
    pub object: &'a str,
    /// Method to invoke.
    pub method: &'a str,
    /// Marshalled arguments.
    pub args: &'a [u8],
}

/// The wire form of a [`DriverCmd`]: its fields back to back, as a
/// struct derive would encode them (the vendored derive takes no
/// lifetimes).
type WireCmd<'a> = (u64, u32, &'a str, &'a str, &'a [u8]);

impl<'a> DriverCmd<'a> {
    /// Encodes the command into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let wire: WireCmd<'_> = (self.op, self.to, self.object, self.method, self.args);
        mage_codec::to_bytes(&wire).expect("command encodes")
    }

    /// Decodes a command in place: its names and arguments borrow from
    /// `payload`.
    ///
    /// # Errors
    ///
    /// Returns a codec error for a truncated or malformed payload.
    pub fn decode(payload: &'a [u8]) -> Result<Self, DecodeError> {
        let (op, to, object, method, args): WireCmd<'a> = mage_codec::from_bytes(payload)?;
        Ok(DriverCmd {
            op,
            to,
            object,
            method,
            args,
        })
    }
}

/// App that executes one plain RMI call per injected [`DriverCmd`]. The
/// op completes with the reply's bytes, or fails with the stringified
/// client error.
#[derive(Debug, Default)]
pub struct DriverClient;

impl App for DriverClient {
    fn on_driver(&mut self, env: &mut Env<'_, '_>, payload: Bytes) {
        match DriverCmd::decode(&payload) {
            Ok(cmd) => {
                env.call(
                    NodeId::from_raw(cmd.to),
                    cmd.object,
                    cmd.method,
                    cmd.args,
                    cmd.op,
                );
            }
            Err(err) if env.trace_enabled() => env.note(format!("bad driver command: {err}")),
            Err(_) => {}
        }
    }

    fn on_reply(&mut self, env: &mut Env<'_, '_>, token: u64, result: Result<Bytes, RmiError>) {
        let op = OpId::from_raw(token);
        match result {
            Ok(bytes) => env.complete_op(op, bytes),
            Err(err) => env.fail_op(op, err.to_string()),
        }
    }
}

/// Builds a client endpoint (driver-driven, no bound objects).
pub fn client_endpoint(cfg: Config) -> Endpoint<DriverClient> {
    Endpoint::new(DriverClient, cfg)
}

/// Builds a server endpoint hosting one object bound under `name`.
pub fn server_endpoint(
    cfg: Config,
    name: &str,
    object: Box<dyn RemoteObject>,
) -> Endpoint<DriverClient> {
    let mut endpoint = Endpoint::new(DriverClient, cfg);
    endpoint.bind(name, object);
    endpoint
}

/// Synchronously executes one RMI call from `client` to `object`@`server`,
/// running the world until it completes.
///
/// # Errors
///
/// * [`SimError`] wrapped failures if the world stalls or the budget runs out
/// * an `Err(String)` payload if the call itself failed (fault or timeout)
pub fn drive_call(
    world: &mut World,
    client: NodeId,
    server: NodeId,
    object: &str,
    method: &str,
    args: Vec<u8>,
) -> Result<Result<Vec<u8>, String>, SimError> {
    let op = world.begin_op();
    let cmd = DriverCmd {
        op: op.as_raw(),
        to: server.as_raw(),
        object,
        method,
        args: &args,
    };
    let payload = Bytes::from(cmd.encode());
    world.inject(client, "drive-call", payload);
    match world.block_on(op) {
        Ok(reply) => Ok(Ok(reply.to_vec())),
        Err(SimError::Op(err)) => Ok(Err(err)),
        Err(err) => Err(err),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_cmd_roundtrips() {
        let cmd = DriverCmd {
            op: 3,
            to: 1,
            object: "counter",
            method: "add",
            args: &[5],
        };
        let bytes = cmd.encode();
        assert_eq!(DriverCmd::decode(&bytes).unwrap(), cmd);
    }
}
