//! The op desk: where typed commands and outcomes wait while the world
//! delivers the driver event that carries their op id.
//!
//! The driver ([`Session`](crate::Session) and the runtime's admin calls)
//! and every [`MageNode`](crate::node::MageNode) live in one process, so a
//! command never needs to be encoded to reach its node. Issuing parks the
//! typed [`Command`] here and injects one driver event holding only the
//! op id — the event still goes through the world's queue, so when a
//! command runs, and whether a crash drops it, is decided exactly as for
//! any other message. The node takes the command off the desk when the
//! event arrives, and later leaves the operation's typed outcome here
//! for [`Pending::wait`](crate::Pending::wait) to collect.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use mage_sim::{IdMap, NodeId, OpId, SimTime, World};

use crate::error::MageError;
use crate::proto::{Command, Outcome};

/// The desk shared by the runtime, its sessions and its nodes.
pub(crate) type SharedDesk = Rc<RefCell<OpDesk>>;

/// A typed operation result, as a node completes it.
pub(crate) type OpResult = Result<Outcome, MageError>;

/// Every driver operation that has been issued and not yet collected.
#[derive(Default)]
pub(crate) struct OpDesk {
    entries: IdMap<OpId, Entry>,
}

struct Entry {
    /// The node the command was injected to, its epoch and the instant:
    /// tell [`OpDesk::abandon`] whether the op can still complete.
    node: NodeId,
    epoch: u64,
    parked_at: SimTime,
    state: State,
    /// The issuer dropped its handle: the op still runs, but its outcome
    /// is discarded on arrival.
    abandoned: bool,
}

enum State {
    /// Parked; the node has not taken the command yet.
    Queued(Command),
    /// The node took the command; no outcome yet.
    Running,
    /// The outcome, waiting to be collected.
    Done(OpResult),
}

impl OpDesk {
    /// A fresh, empty desk behind the shared handle.
    pub fn shared() -> SharedDesk {
        Rc::new(RefCell::new(OpDesk::default()))
    }

    /// Parks `cmd` for `op`, whose driver event is being injected to
    /// `node` now, and returns that event's payload: the op id.
    pub fn park(&mut self, op: OpId, node: NodeId, world: &World, cmd: Command) -> Bytes {
        self.entries.insert(
            op,
            Entry {
                node,
                epoch: world.node_epoch(node),
                parked_at: world.now(),
                state: State::Queued(cmd),
                abandoned: false,
            },
        );
        Bytes::copy_from_slice(&op.as_raw().to_le_bytes())
    }

    /// Hands a node the parked command whose driver event carried
    /// `payload` (once), with the op it completes.
    pub fn take_command(&mut self, payload: &[u8]) -> Option<(OpId, Command)> {
        let op = OpId::from_raw(u64::from_le_bytes(payload.try_into().ok()?));
        let entry = self.entries.get_mut(&op)?;
        match std::mem::replace(&mut entry.state, State::Running) {
            State::Queued(cmd) => Some((op, cmd)),
            other => {
                entry.state = other;
                None
            }
        }
    }

    /// Records the outcome of `op`; an abandoned op's outcome is dropped
    /// along with its entry.
    pub fn finish(&mut self, op: OpId, result: OpResult) {
        match self.entries.get_mut(&op) {
            Some(entry) if entry.abandoned => {
                self.entries.remove(&op);
            }
            Some(entry) => entry.state = State::Done(result),
            None => {}
        }
    }

    /// Collects the outcome of `op`, removing its entry whatever state it
    /// was in. `None` when the op has no outcome (yet).
    pub fn collect(&mut self, op: OpId) -> Option<OpResult> {
        match self.entries.remove(&op)?.state {
            State::Done(result) => Some(result),
            State::Queued(_) | State::Running => None,
        }
    }

    /// The issuer of `op` gave up its handle. The op leaves the desk now
    /// if it has finished or can never finish: its node is down or has
    /// crashed since injection (the task died with it), or the instant
    /// of its driver event has passed without the node taking the
    /// command (the world dropped the event). Any other op keeps running
    /// and leaves when it finishes.
    ///
    /// The desk cannot see the world's queue, so within the instant of
    /// the driver event it judges by the node alone: abandoned while the
    /// node is down, the op is dropped even if a restart in that same
    /// instant would have let the event through; abandoned after such a
    /// restart, it is kept although the event was lost.
    pub fn abandon(&mut self, op: OpId, world: &World) {
        let Some(entry) = self.entries.get_mut(&op) else {
            return;
        };
        let node_lost = !world.is_up(entry.node) || world.node_epoch(entry.node) != entry.epoch;
        let event_dropped =
            matches!(entry.state, State::Queued(_)) && world.now() > entry.parked_at;
        if node_lost || event_dropped || matches!(entry.state, State::Done(_)) {
            self.entries.remove(&op);
        } else {
            entry.abandoned = true;
        }
    }

    /// Drops the abandoned ops injected to `node`, which just crashed:
    /// nobody waits for them, and they can no longer finish.
    pub fn purge_abandoned(&mut self, node: NodeId) {
        self.entries
            .retain(|_, entry| !(entry.abandoned && entry.node == node));
    }

    /// Number of ops on the desk.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}
