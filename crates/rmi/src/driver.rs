//! A minimal [`App`] that turns driver commands into plain RMI calls.
//!
//! This is the pure-RMI client used as the paper's *Java's RMI* baseline:
//! no MAGE machinery, just a stub call to a named object on a known node.

use bytes::Bytes;
use mage_sim::{NodeId, OpId, SimError, World};
use serde::{Deserialize, Serialize};

use crate::endpoint::{App, Config, Endpoint, Env};
use crate::error::RmiError;
use crate::object::RemoteObject;

/// Driver command understood by a [`client_endpoint`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriverCmd {
    /// Raw [`OpId`] to complete when the call finishes.
    pub op: u64,
    /// Raw id of the target node.
    pub to: u32,
    /// Name of the remote object.
    pub object: String,
    /// Method to invoke.
    pub method: String,
    /// Marshalled arguments.
    pub args: Vec<u8>,
}

/// Completion payload: the call's result or a stringified client error.
type DriveOutcome = Result<Vec<u8>, String>;

/// App that executes one plain RMI call per injected [`DriverCmd`].
#[derive(Debug, Default)]
pub struct DriverClient;

impl App for DriverClient {
    fn on_driver(&mut self, env: &mut Env<'_, '_>, payload: Bytes) {
        match mage_codec::from_bytes::<DriverCmd>(&payload) {
            Ok(cmd) => {
                env.call(
                    NodeId::from_raw(cmd.to),
                    cmd.object,
                    cmd.method,
                    cmd.args,
                    cmd.op,
                );
            }
            Err(err) => env.note(format!("bad driver command: {err}")),
        }
    }

    fn on_reply(&mut self, env: &mut Env<'_, '_>, token: u64, result: Result<Bytes, RmiError>) {
        let outcome: DriveOutcome = result.map(|b| b.to_vec()).map_err(|e| e.to_string());
        let bytes = mage_codec::to_bytes(&outcome).expect("outcome encodes");
        env.complete_op(OpId::from_raw(token), Bytes::from(bytes));
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
        object: object.to_owned(),
        method: method.to_owned(),
        args,
    };
    let payload = Bytes::from(mage_codec::to_bytes(&cmd).expect("command encodes"));
    world.inject(client, "drive-call", payload);
    let completion = world.block_on(op)?;
    let outcome: DriveOutcome =
        mage_codec::from_bytes(&completion).expect("completion payload decodes");
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_cmd_roundtrips() {
        let cmd = DriverCmd {
            op: 3,
            to: 1,
            object: "counter".into(),
            method: "add".into(),
            args: vec![5],
        };
        let bytes = mage_codec::to_bytes(&cmd).unwrap();
        assert_eq!(mage_codec::from_bytes::<DriverCmd>(&bytes).unwrap(), cmd);
    }
}
