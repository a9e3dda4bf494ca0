//! Client-side protocol engines and server-side continuations.
//!
//! A mobility attribute's `bind` is "a complex wrapper for RMI's
//! `Naming.lookup`" (§4.2): it finds the component, optionally locks it,
//! moves or instantiates it, invokes it and unlocks — each step an RMI call
//! whose reply drives the next. This module holds those state machines:
//!
//! * [`ExecTask`] — the one client engine, run on the client's node for
//!   every session operation but local creation: binds, invocations,
//!   remote creation, and finds, locks and unlocks
//! * [`Task::Ship`] — a component shipped out of the hosting node: an
//!   object's move (Figure 7's messages 4/5; `moveTo` requests,
//!   client-local moves and autonomous mobile-agent hops) or a durability
//!   checkpoint to the backup home. Both push the class and resend when
//!   the receiver lacks it; only the final outcome branches on the
//!   [`Cargo`]
//! * forwarded finds — the registry's chain-walking with path compression
//!
//! The exec engine asks `MageNode::locate` where a component is: the
//! single locate step, which answers from this node's own copy, the
//! registry or the caller's hint, or else starts a find walk from the
//! component's home. A *walk* — a find, or a bind with no location hint,
//! which must find a shared object before use (§3.5) — takes the registry
//! entry as where the forwarding chain starts, not as the answer. Every
//! walk, the client's and each forwarded hop's, follows one rule when it
//! meets a dead hop: drop the entry that led there and retry once from the
//! component's home (`retry_find_from_home`). Find, move and restore
//! replies are recorded through `MageNode::learn`, and class pushes go
//! through `class_args` and `push_class`, each written once.
//!
//! Tasks carry interned [`NameId`]s / [`CompKey`]s; strings are resolved
//! only on error paths.

use bytes::Bytes;
use mage_rmi::{Env, Fault, NameId, ReplyHandle, RmiError};
use mage_sim::{NodeId, OpId};

use crate::error::MageError;
use crate::lock::LockKind;
use crate::node::{MageNode, TransitFindWaiter};
use crate::proto::{self, FindReply};
use crate::registry::{CompKey, Incarnation, Located};

/// A continuation awaiting an RMI reply (keyed by its call token).
pub(crate) enum Task {
    /// A client operation's execution ladder, stored unboxed: a task
    /// moves in and out of the table at every phase, and boxing it would
    /// cost an allocation each time.
    Exec(ExecTask),
    /// A find being forwarded along the chain on behalf of a caller.
    FwdFind {
        reply: ReplyHandle,
        key: CompKey,
        /// Origin-server hint riding with the walk.
        home: Option<u32>,
        /// Whether this walk is already the once-only home retry.
        retried: bool,
    },
    /// Cargo shipped out of this namespace to `dest`.
    Ship {
        dest: NodeId,
        phase: ShipPhase,
        cargo: Cargo,
    },
}

/// Which ack a shipment awaits. The receiver must hold the class to reify
/// (or later restore) the object, so a first `ClassMissing` refusal pushes
/// the class and resends the cargo once.
#[derive(Clone, Copy)]
pub(crate) enum ShipPhase {
    Sent,
    PushingClass,
    Resent,
}

/// What a [`Task::Ship`] carries.
pub(crate) enum Cargo {
    /// An object moving to a new host; the move commits or aborts.
    Move(MoveCargo),
    /// A durability snapshot for the backup home, kept or dropped there.
    Checkpoint(proto::CheckpointArgs),
}

/// Why a move was started; decides who hears about the outcome.
pub(crate) enum MoveOrigin {
    /// A remote `moveTo` caller awaiting a reply.
    Reply(ReplyHandle),
    /// A local [`ExecTask`] (stored under this task id) awaiting resumption.
    Exec(u64),
    /// An autonomous mobile-agent hop; outcome is only traced.
    Autonomous,
}

/// An object on its way out: who hears the outcome, and the receive
/// request that carries it.
pub(crate) struct MoveCargo {
    pub origin: MoveOrigin,
    pub args: proto::ReceiveArgs,
    /// Waiters removed from the lock queue at pack time. Bounced after the
    /// move commits (so their re-find sees the forwarding address) or
    /// re-queued if the move aborts.
    pub parked_waiters: Vec<crate::lock::QueuedWaiter<ReplyHandle>>,
}

/// Where the exec engine resumes after a find completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resume {
    Guard,
    Action,
    Invoke,
}

#[allow(clippy::enum_variant_names)] // every phase awaits a reply; the prefix is the point
#[derive(Clone, Copy)]
pub(crate) enum ExecPhase {
    AwaitFind {
        resume: Resume,
        /// Whether this walk is already the once-only home retry.
        retried: bool,
    },
    AwaitLock {
        at: NodeId,
    },
    AwaitMove,
    AwaitFetchClass {
        dest: NodeId,
    },
    AwaitPushClass {
        dest: NodeId,
    },
    AwaitInstantiate {
        dest: NodeId,
        retried_class: bool,
    },
    AwaitInvoke,
    AwaitUnlock,
    /// Consulting the backup home of a replicated object after a
    /// `NotFound`/`Unreachable` outcome; the task's `failure` holds the
    /// error that surfaces if no restore is possible.
    AwaitRestore,
}

pub(crate) struct ExecTask {
    pub op: OpId,
    pub spec: proto::ExecSpec,
    pub phase: ExecPhase,
    pub cloc: Option<NodeId>,
    /// Incarnation believed to live at `cloc` (updated by every find,
    /// move and instantiate reply); invocations carry it as `expected`.
    pub cinc: Option<Incarnation>,
    pub locked_at: Option<NodeId>,
    pub lock_kind: Option<LockKind>,
    pub invoke_at: Option<NodeId>,
    /// The invocation's marshalled result: for a remote invocation, a
    /// zero-copy slice of the reply frame.
    pub result: Option<Bytes>,
    pub retries: u8,
    /// The error this task surfaces unless it recovers: set while the lock
    /// is released after a failure, or while the backup is consulted.
    pub failure: Option<MageError>,
    /// Whether the once-only backup consultation has been spent (the
    /// durability mirror of the find walk's once-only home retry).
    pub restore_tried: bool,
    /// How Table 2 coercion resolved the bind (set when it first locates).
    pub coerced: crate::coercion::Coerced,
}

pub(crate) fn rmi_error_to_mage(err: &RmiError) -> MageError {
    match err {
        RmiError::Fault(fault) => proto::fault_to_error(fault),
        RmiError::PeerUnreachable { peer, .. } => MageError::Unreachable {
            peer: peer.as_raw(),
        },
        other => MageError::Rmi(other.to_string()),
    }
}

/// Whether an RMI failure means the hop we talked to (or a hop it talked
/// to) is unreachable — the signal that a forwarding-chain entry is dead
/// and worth repairing.
pub(crate) fn is_unreachable(err: &RmiError) -> bool {
    matches!(
        err,
        RmiError::PeerUnreachable { .. } | RmiError::Fault(Fault::Unreachable { .. })
    )
}

fn error_to_fault(err: &MageError) -> Fault {
    match err {
        MageError::NotFound(name) => Fault::NotBound(name.clone()),
        MageError::ClassUnavailable(class) => Fault::ClassMissing(class.clone()),
        MageError::Denied(why) => Fault::AccessDenied(why.clone()),
        other => Fault::App(other.to_string()),
    }
}

pub(crate) fn decode<T: serde::de::DeserializeOwned>(bytes: &[u8]) -> Result<T, MageError> {
    mage_codec::from_bytes(bytes).map_err(MageError::from)
}

impl MageNode {
    /// Starts a find walk for `key` at `start`, this node being the first
    /// hop visited; the reply goes to `token`.
    fn send_find(
        &mut self,
        env: &mut Env<'_, '_>,
        start: NodeId,
        key: CompKey,
        home: Option<u32>,
        retried: bool,
        token: u64,
    ) {
        let args = proto::FindArgs {
            key,
            visited: vec![env.node().as_raw()],
            home,
            retried,
        };
        self.call_service(env, start, self.ids.find, &args, token);
    }

    /// The once-only home retry of a find walk that dead-ended: unless
    /// the walk was already `retried`, or the `home` hint is absent or
    /// points here, starts a fresh walk from `home` with the visited set
    /// reset and returns the token its reply arrives under (the caller
    /// parks its task there). `None` means the caller surfaces its error.
    pub(crate) fn retry_find_from_home(
        &mut self,
        env: &mut Env<'_, '_>,
        key: CompKey,
        home: Option<u32>,
        retried: bool,
    ) -> Option<u64> {
        if retried {
            return None;
        }
        let me = env.node();
        let h = home.map(NodeId::from_raw).filter(|h| *h != me)?;
        let token = self.next_task;
        self.next_task += 1;
        self.send_find(env, h, key, home, true, token);
        Some(token)
    }

    /// The locate step, the only one: where `key` is, and which
    /// incarnation that knowledge vouches for, without a network call if
    /// possible.
    ///
    /// Answers from this node's own copy; for an object mid-move out of
    /// here, the move's outcome answers once it settles. Otherwise, unless
    /// `walk`, it answers from the registry or the caller's `hint`. A walk
    /// (a find, or a bind that must find before use, §3.5) treats those
    /// entries as where the forwarding chain starts, not as the answer,
    /// and starts at the `home` node without them. Returns
    /// `Ok(Some(loc))` when known (possibly this node), `Ok(None)` when
    /// the answer will arrive as a find reply to `token` (the caller
    /// parks its task), or `NotFound` when there is nowhere left to ask.
    pub(crate) fn locate(
        &mut self,
        env: &mut Env<'_, '_>,
        key: CompKey,
        hint: Option<Located>,
        home: Option<u32>,
        walk: bool,
        token: u64,
    ) -> Result<Option<Located>, MageError> {
        let me = env.node();
        if self.has_component(key) {
            return Ok(Some(Located::new(me, self.local_incarnation(key))));
        }
        if self.in_transit(key) {
            // Our own object is mid-move: the move's outcome is the answer.
            let waiters = self.transit_finds.entry(key.id).or_default();
            waiters.push(TransitFindWaiter::Task(token));
            return Ok(None);
        }
        let elsewhere = |loc: &Located| loc.node != me;
        let known = (self.registry.lookup(key).filter(elsewhere)).or(hint.filter(elsewhere));
        if let Some(loc) = known.filter(|_| !walk) {
            return Ok(Some(loc));
        }
        let start = known.map(|l| l.node);
        match start.or_else(|| home.map(NodeId::from_raw).filter(|h| *h != me)) {
            Some(start) => {
                self.send_find(env, start, key, home, false, token);
                Ok(None)
            }
            None => Err(MageError::NotFound(key.display(&self.syms))),
        }
    }

    /// Records what a find-shaped reply (a find, a move or a restore)
    /// taught this node about `key` — path compression (§4.1) — and
    /// returns it as location knowledge.
    pub(crate) fn learn(&mut self, key: CompKey, found: &FindReply) -> Located {
        let loc = Located::new(NodeId::from_raw(found.location), found.incarnation);
        self.registry.update(key, loc);
        loc
    }

    /// The class-transfer payload for `class`, or `None` when the world's
    /// library does not define it.
    pub(crate) fn class_args(&self, class: NameId) -> Option<proto::ReceiveClassArgs> {
        let def = self.lib.get(&self.syms.resolve_lossy(class))?;
        Some(proto::ReceiveClassArgs {
            class,
            code: vec![0u8; def.code_size() as usize],
            has_static_fields: def.has_static_fields(),
        })
    }

    /// Pushes a class to `dest` ahead of a payload that needs it; the ack
    /// goes to `token`.
    pub(crate) fn push_class(
        &mut self,
        env: &mut Env<'_, '_>,
        dest: NodeId,
        args: &proto::ReceiveClassArgs,
        token: u64,
    ) {
        self.call_service(env, dest, self.ids.receive_class, args, token);
    }

    /// Routes an RMI reply to the task that issued the call.
    ///
    /// Unknown tokens are ignored: they belong to fire-and-forget calls
    /// (one-way mobile-agent invocations) or to calls whose task already
    /// timed out.
    pub(crate) fn step_task(
        &mut self,
        env: &mut Env<'_, '_>,
        token: u64,
        result: Result<Bytes, RmiError>,
    ) {
        let Some(task) = self.tasks.remove(&token) else {
            return;
        };
        match task {
            Task::FwdFind {
                reply,
                key,
                home,
                retried,
            } => {
                match result {
                    Ok(bytes) => match decode::<FindReply>(&bytes) {
                        Ok(found) => {
                            self.learn(key, &found);
                            // Forward the payload straight out of the
                            // received frame — no copy.
                            env.reply_with(reply, Ok(&bytes));
                        }
                        Err(e) => {
                            env.reply(reply, Err(Fault::App(e.to_string())));
                        }
                    },
                    Err(err) => {
                        // The hop we followed failed: the entry that led
                        // there is stale — repair it so the bad chain dies
                        // with this walk. A dead hop earns the once-only
                        // retry from the component's home.
                        self.registry.remove(key);
                        let retry = is_unreachable(&err)
                            .then(|| self.retry_find_from_home(env, key, home, retried))
                            .flatten();
                        if let Some(token) = retry {
                            let task = Task::FwdFind {
                                reply,
                                key,
                                home,
                                retried: true,
                            };
                            self.tasks.insert(token, task);
                            return;
                        }
                        match err {
                            RmiError::Fault(fault) => env.reply(reply, Err(fault)),
                            RmiError::PeerUnreachable { peer, .. } => env.reply(
                                reply,
                                Err(Fault::Unreachable {
                                    peer: peer.as_raw(),
                                }),
                            ),
                            other => env.reply(reply, Err(Fault::App(other.to_string()))),
                        };
                    }
                }
            }
            Task::Exec(t) => self.step_exec_reply(env, token, t, result),
            Task::Ship { dest, phase, cargo } => {
                self.step_ship(env, token, dest, phase, cargo, result);
            }
        }
    }

    // ---- shipping: moves and checkpoints ----

    /// Ships `cargo` to `dest` under a fresh token.
    pub(crate) fn ship(&mut self, env: &mut Env<'_, '_>, dest: NodeId, cargo: Cargo) {
        let token = self.next_task;
        self.next_task += 1;
        self.send_cargo(env, dest, &cargo, token);
        let phase = ShipPhase::Sent;
        self.tasks.insert(token, Task::Ship { dest, phase, cargo });
    }

    fn send_cargo(&mut self, env: &mut Env<'_, '_>, dest: NodeId, cargo: &Cargo, token: u64) {
        match cargo {
            Cargo::Move(m) => self.call_service(env, dest, self.ids.receive, &m.args, token),
            Cargo::Checkpoint(args) => {
                self.call_service(env, dest, self.ids.checkpoint, args, token);
            }
        }
    }

    /// Drives a shipment through its [`ShipPhase`]s; any failure but the
    /// first `ClassMissing` is final. A move commits or aborts; a failed checkpoint is abandoned,
    /// since the next mutation ships a strictly fresher snapshot and a dead
    /// backup cannot be helped by retrying into it.
    fn step_ship(
        &mut self,
        env: &mut Env<'_, '_>,
        token: u64,
        dest: NodeId,
        phase: ShipPhase,
        cargo: Cargo,
        result: Result<Bytes, RmiError>,
    ) {
        let (class, name) = match &cargo {
            Cargo::Move(m) => (m.args.class, m.args.name),
            Cargo::Checkpoint(args) => (args.class, args.name),
        };
        let phase = match (phase, &result) {
            (ShipPhase::Sent, Err(RmiError::Fault(Fault::ClassMissing(_)))) => {
                let class_args = self.class_args(class);
                if let Some(args) = &class_args {
                    self.push_class(env, dest, args, token);
                }
                class_args.map(|_| ShipPhase::PushingClass)
            }
            (ShipPhase::PushingClass, Ok(_)) => {
                self.send_cargo(env, dest, &cargo, token);
                Some(ShipPhase::Resent)
            }
            _ => None,
        };
        if let Some(phase) = phase {
            self.tasks.insert(token, Task::Ship { dest, phase, cargo });
            return;
        }
        match (cargo, result) {
            (Cargo::Move(m), Ok(_)) => self.commit_move(env, dest, m),
            (Cargo::Move(m), Err(e)) => self.abort_move(env, dest, m, rmi_error_to_mage(&e)),
            // Stored, or refused as stale; either way done.
            (Cargo::Checkpoint(_), Ok(_)) => {}
            (Cargo::Checkpoint(_), Err(e)) => {
                if env.trace_enabled() {
                    let name = self.name_str(name);
                    env.note(format!("checkpoint of {name} to {dest} dropped: {e}"));
                }
            }
        }
    }

    // ---- the move-out protocol (Figure 7, messages 4/5) ----

    pub(crate) fn begin_move_out(
        &mut self,
        env: &mut Env<'_, '_>,
        name: NameId,
        dest: NodeId,
        origin: MoveOrigin,
    ) {
        let Some(hosted) = self.objects.get_mut(&name) else {
            let err = MageError::NotFound(self.name_str(name));
            self.finish_move_failed(env, origin, err);
            return;
        };
        if hosted.in_transit {
            let err = MageError::BadPlan(format!("{} is already in transit", self.name_str(name)));
            self.finish_move_failed(env, origin, err);
            return;
        }
        let state = match hosted.object.snapshot() {
            Ok(state) => state,
            Err(fault) => {
                self.finish_move_failed(env, origin, proto::fault_to_error(&fault));
                return;
            }
        };
        hosted.in_transit = true;
        let (holders, parked_waiters) = self.locks.extract(name);
        let args = proto::ReceiveArgs {
            name,
            class: hosted.class,
            state,
            home: hosted.home.as_raw(),
            visibility: hosted.visibility,
            version: hosted.version + 1,
            incarnation: hosted.incarnation,
            locks: holders,
            durability: hosted.durability,
            backup: hosted.backup.map(|n| n.as_raw()),
            snapshot_epoch: hosted.snapshot_epoch,
        };
        let cargo = MoveCargo {
            origin,
            args,
            parked_waiters,
        };
        self.ship(env, dest, Cargo::Move(cargo));
    }

    /// The transfer was acknowledged: drop the local copy and leave a
    /// forwarding address (§4.1) carrying the incarnation — a move is the
    /// same identity at a new home.
    fn commit_move(&mut self, env: &mut Env<'_, '_>, dest: NodeId, m: MoveCargo) {
        self.objects.remove(&m.args.name);
        self.registry.update(
            CompKey::object(m.args.name),
            Located::new(dest, m.args.incarnation),
        );
        self.finish_move_ok(env, dest, m);
    }

    /// Answers every find parked on `name` during its transit — remote
    /// calls over RMI, local tasks in place — with `location` (the
    /// destination on commit, this node on abort) and the moved object's
    /// incarnation.
    fn flush_transit_finds(
        &mut self,
        env: &mut Env<'_, '_>,
        name: NameId,
        location: NodeId,
        incarnation: Incarnation,
    ) {
        let reply = FindReply {
            location: location.as_raw(),
            incarnation,
        };
        for waiter in self.transit_finds.remove(&name).unwrap_or_default() {
            let payload = mage_codec::to_bytes(&reply).expect("find reply encodes");
            match waiter {
                TransitFindWaiter::Reply(handle) => {
                    env.reply(handle, Ok(payload));
                }
                TransitFindWaiter::Task(token) => self.step_task(env, token, Ok(payload.into())),
            }
        }
    }

    fn abort_move(&mut self, env: &mut Env<'_, '_>, dest: NodeId, m: MoveCargo, err: MageError) {
        let name = m.args.name;
        // Restore the object to service at this namespace.
        if let Some(hosted) = self.objects.get_mut(&name) {
            hosted.in_transit = false;
        }
        // Finds that arrived mid-move resolve right back here.
        let me = env.node();
        // Re-home: the aborted transfer (e.g. to a crashed target) must
        // leave the registry pointing at the surviving copy, not at
        // whatever the chain said before the move started.
        self.registry
            .update(CompKey::object(name), Located::new(me, m.args.incarnation));
        self.flush_transit_finds(env, name, me, m.args.incarnation);
        self.locks.install(name, m.args.locks.clone());
        // Re-queue the waiters we parked; immediate grants are answered
        // directly (reply handles are Copy).
        for waiter in m.parked_waiters {
            match self
                .locks
                .request(name, waiter.client, waiter.target, me, waiter.payload)
            {
                crate::lock::Request::Granted(kind) => {
                    self.deliver_grant(
                        env,
                        crate::lock::Grant {
                            name,
                            waiter: waiter.payload,
                            client: waiter.client,
                            kind,
                        },
                    );
                }
                crate::lock::Request::Queued => {}
            }
        }
        if env.trace_enabled() {
            let name = self.name_str(name);
            env.note(format!("move of {name} to {dest} failed: {err}"));
        }
        self.finish_move_failed(env, m.origin, err);
    }

    fn finish_move_ok(&mut self, env: &mut Env<'_, '_>, dest: NodeId, m: MoveCargo) {
        let name = m.args.name;
        // Only now that the forwarding address is in place do we bounce the
        // queued waiters: their retry re-finds the object at its new host.
        for waiter in m.parked_waiters {
            env.reply(
                waiter.payload,
                Err(Fault::NotBound(format!("{} moved", self.name_str(name)))),
            );
        }
        // Finds that arrived mid-move resolve to the destination.
        self.flush_transit_finds(env, name, dest, m.args.incarnation);
        match m.origin {
            MoveOrigin::Reply(handle) => {
                let payload = mage_codec::to_bytes(&FindReply {
                    location: dest.as_raw(),
                    incarnation: m.args.incarnation,
                })
                .expect("find reply encodes");
                env.reply(handle, Ok(payload));
            }
            MoveOrigin::Exec(exec_id) => {
                if let Some(Task::Exec(t)) = self.tasks.remove(&exec_id) {
                    self.exec_move_done(env, exec_id, t, Ok((dest, m.args.incarnation)));
                }
            }
            MoveOrigin::Autonomous => {
                if env.trace_enabled() {
                    let name = self.name_str(name);
                    env.note(format!("agent {name} hopped to {dest}"));
                }
            }
        }
    }

    fn finish_move_failed(&mut self, env: &mut Env<'_, '_>, origin: MoveOrigin, err: MageError) {
        match origin {
            MoveOrigin::Reply(handle) => {
                env.reply(handle, Err(error_to_fault(&err)));
            }
            MoveOrigin::Exec(exec_id) => {
                if let Some(Task::Exec(t)) = self.tasks.remove(&exec_id) {
                    self.exec_move_done(env, exec_id, t, Err(err));
                }
            }
            MoveOrigin::Autonomous => {
                if env.trace_enabled() {
                    env.note(format!("autonomous hop failed: {err}"));
                }
            }
        }
    }
}
