//! The execution ladder: every client operation but local creation.
//!
//! An [`ExecTask`] runs on the client's node and realises one client
//! operation: `locate → coerce → [lock] → place component → [invoke] →
//! [unlock]`. A bind first locates its object (a bind with no location
//! hint finds it, §3.5: shared objects "must be found before use"), then
//! applies Table 2 coercion once, which rewrites the plan's default action
//! for where the object turned out to be. Placement is then nothing
//! (RPC/CLE), a migration (REV on objects, GREV, MA, COD), or an
//! instantiation from the class (traditional REV/COD factories and remote
//! creation; these have nothing to locate), with class transfer slipped in
//! on demand. A stub invocation skips the first two steps and acts on its
//! hint. A find, a lock and an unlock are plans that place nothing
//! ([`ActionSpec::Stay`]): a find walks and answers where the component
//! is, a lock ([`Guard::Take`]) keeps the lock it takes, and an unlock
//! ([`Guard::Release`]) counts the object as locked once located, so the
//! ladder's unlock rung releases it.
//!
//! # Recovery
//!
//! A failed step climbs one ladder, each rung written once:
//!
//! 1. **Re-walk.** A find walk that meets a dead hop drops the registry
//!    entry that led there and retries once from the component's home
//!    (`retry_find_from_home`, the rule every walk follows); it spends no
//!    retry budget.
//! 2. **Re-resolve.** One retry table (`ExecTask::retry_point`) maps the
//!    step that failed after acting (a move, a lock or an invocation) and
//!    its error to the step to resume at. One transition (`exec_retry`)
//!    spends a unit of the per-op `race_retries` budget, forgets the stale
//!    location knowledge and locates the object again through the node's
//!    single locate step.
//! 3. **Restore.** A crash-shaped failure (`NotFound`/`Unreachable`) of a
//!    replicated object earns one consultation of its backup home
//!    (`exec_try_restore`); a stored snapshot brings the object back under
//!    a fresh incarnation and the task resumes against it.
//! 4. **Typed terminal error.** Anything else, or a spent budget, surfaces
//!    as a typed [`MageError`] once the lock (if held) is released.

use bytes::Bytes;
use mage_rmi::{Env, Fault, NameId, RmiError};
use mage_sim::{NodeId, OpId};

use crate::coercion::{coerce, Coerced, Situation};
use crate::component::ModelKind;
use crate::engine::{
    decode, is_unreachable, rmi_error_to_mage, ExecPhase, ExecTask, MoveOrigin, Resume, Task,
};
use crate::error::MageError;
use crate::lock::LockKind;
use crate::node::{local_birth_error, MageNode};
use crate::proto::{self, ActionSpec, FindReply, Guard, Outcome};
use crate::registry::{CompKey, Incarnation, Located};

/// Whether a failed step is worth re-finding the object over: either the
/// object moved out from under us (`NotBound` race) or the host we spoke
/// to is gone (unreachable) — both mean our location knowledge is stale.
fn stale_location(err: &RmiError) -> bool {
    matches!(err, RmiError::Fault(Fault::NotBound(_))) || is_unreachable(err)
}

/// Whether a `StaleIdentity` refusal may be resolved by re-finding: only
/// for plans whose identity expectation is *advisory* (a bind with a
/// stale cached incarnation — binding is the explicit rebind act, so the
/// retry re-resolves identity). Pinned stub invocations surface it.
fn rebindable_identity(spec: &proto::ExecSpec, err: &RmiError) -> bool {
    !spec.identity_pinned && matches!(err, RmiError::Fault(Fault::StaleIdentity { .. }))
}

impl ExecTask {
    /// The computation target this plan locks against (the `T` carried by a
    /// lock request in Figure 8): an explicit lock's own, else the
    /// action's.
    fn lock_target(&self, me: NodeId) -> NodeId {
        if let Guard::Take { target } = self.spec.guard {
            return NodeId::from_raw(target);
        }
        match &self.spec.action {
            ActionSpec::InvokeAt { node } => NodeId::from_raw(*node),
            ActionSpec::Stay | ActionSpec::InvokeAtCurrent => self.cloc.unwrap_or(me),
            ActionSpec::Local => me,
            ActionSpec::MoveTo { node } => NodeId::from_raw(*node),
            ActionSpec::Instantiate { node, .. } => NodeId::from_raw(*node),
        }
    }

    /// The class an instantiating plan creates from.
    fn class(&self) -> NameId {
        match self.spec.action {
            ActionSpec::Instantiate { class, .. } => class,
            _ => unreachable!("only instantiate plans ship classes"),
        }
    }

    /// The birth an instantiating plan requests, sent to the birthplace or
    /// run here.
    fn instantiate_args(&self) -> proto::InstantiateArgs {
        let ActionSpec::Instantiate {
            class,
            ref state,
            visibility,
            durability,
            backup,
            replace,
            ..
        } = self.spec.action
        else {
            unreachable!("only instantiate plans instantiate");
        };
        proto::InstantiateArgs {
            class,
            name: self.spec.key.id,
            state: state.clone(),
            visibility,
            durability,
            backup,
            replace,
        }
    }

    /// Table 2, applied once, when the bind first learns its object is at
    /// `loc`: rewrites the plan's default action into the model that
    /// matches where the object actually is.
    fn coerce(&mut self, model: ModelKind, me: NodeId, loc: NodeId) -> Result<(), MageError> {
        let target = match self.spec.action {
            ActionSpec::InvokeAt { node } | ActionSpec::MoveTo { node } => {
                Some(NodeId::from_raw(node))
            }
            ActionSpec::Local => Some(me),
            ActionSpec::Stay | ActionSpec::InvokeAtCurrent | ActionSpec::Instantiate { .. } => None,
        };
        self.coerced = coerce(model, Situation::classify(me, target, Some(loc)))?;
        let here = ActionSpec::InvokeAt { node: loc.as_raw() };
        match self.coerced {
            Coerced::AsLpc => self.spec.action = ActionSpec::Local,
            Coerced::AsRpc => self.spec.action = here,
            Coerced::Proceed if self.spec.action == ActionSpec::InvokeAtCurrent => {
                self.spec.action = here;
            }
            Coerced::Proceed => {}
        }
        Ok(())
    }

    /// The retry table: where the ladder resumes when the step awaited in
    /// the current phase failed with `err`, or `None` when the failure
    /// does not mean our location knowledge went stale.
    ///
    /// A find is not a row: its walk retries once from the home instead.
    ///
    /// - A move that raced a migration (`NotBound`), or whose host is
    ///   gone, re-runs the placement from wherever the object now is.
    /// - A lock or an invocation that met the same conditions finds the
    ///   object again and re-locks or re-invokes: public objects "must be
    ///   found before the current thread invokes" (§3.5). A
    ///   `StaleIdentity` refusal joins them only for *advisory* identity
    ///   (a bind holding a stale cached incarnation, which the re-find
    ///   replaces with the current one); a pinned stub's `StaleIdentity`
    ///   surfaces typed, never silently rebound.
    fn retry_point(&self, err: &RmiError) -> Option<Resume> {
        let stale = || stale_location(err) || rebindable_identity(&self.spec, err);
        match self.phase {
            ExecPhase::AwaitMove if stale_location(err) => Some(Resume::Action),
            ExecPhase::AwaitLock { .. } if stale() => Some(Resume::Guard),
            ExecPhase::AwaitInvoke if stale() => Some(Resume::Invoke),
            _ => None,
        }
    }
}

impl MageNode {
    pub(crate) fn exec_start(&mut self, env: &mut Env<'_, '_>, op: OpId, spec: proto::ExecSpec) {
        let id = self.next_task;
        self.next_task += 1;
        let cinc = spec.expected_incarnation;
        let task = ExecTask {
            op,
            spec,
            phase: ExecPhase::AwaitFind {
                resume: Resume::Guard,
                retried: false,
            },
            cloc: None,
            cinc,
            locked_at: None,
            lock_kind: None,
            invoke_at: None,
            result: None,
            retries: self.config.race_retries,
            failure: None,
            restore_tried: false,
            coerced: Coerced::Proceed,
        };
        // A bind locates (and so coerces) before it acts, and a find,
        // lock or unlock only locates; a factory bind or a remote creation
        // has nothing to locate, and a stub invocation acts on its hint.
        let locates = match task.spec.action {
            ActionSpec::Stay => true,
            ActionSpec::Instantiate { .. } => false,
            _ => task.spec.model.is_some(),
        };
        if locates {
            let resume = match task.spec.guard {
                Guard::Bracket | Guard::Take { .. } => Resume::Guard,
                Guard::Off | Guard::Release => Resume::Action,
            };
            self.exec_locate(env, id, task, resume);
        } else {
            self.exec_begin_action(env, id, task);
        }
    }

    // ---- locating ----

    /// Locates the plan's object and continues at `resume`, or parks the
    /// task on the find the locate step sent. Without a location hint a
    /// bind or a find walks the forwarding chain (find before use, §3.5);
    /// a lock or an unlock takes the registry's word, else asks the home.
    fn exec_locate(&mut self, env: &mut Env<'_, '_>, id: u64, task: ExecTask, resume: Resume) {
        let hint = task.spec.location_hint.map(|node| {
            let inc = task.spec.expected_incarnation.unwrap_or(Incarnation::NONE);
            Located::new(NodeId::from_raw(node), inc)
        });
        let walk = hint.is_none() && matches!(task.spec.guard, Guard::Off | Guard::Bracket);
        match self.locate(env, task.spec.key, hint, task.spec.home_hint, walk, id) {
            Ok(Some(loc)) => self.exec_located(env, id, task, resume, loc),
            Ok(None) => {
                let phase = ExecPhase::AwaitFind {
                    resume,
                    retried: false,
                };
                self.exec_park(id, task, phase);
            }
            Err(e) => self.exec_unlocated(env, id, task, e),
        }
    }

    /// Continues at `resume` now that the object is known to be at `loc`.
    /// A bind (advisory identity) adopts the incarnation `loc` vouches
    /// for; a pinned stub keeps its own. The first location a bind learns
    /// decides its coercion. An unlock counts the object as locked there.
    fn exec_located(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        mut task: ExecTask,
        resume: Resume,
        loc: Located,
    ) {
        task.cloc = Some(loc.node);
        if task.spec.guard == Guard::Release {
            task.locked_at = Some(loc.node);
        }
        if !task.spec.identity_pinned {
            task.cinc = Some(loc.incarnation).filter(|inc| !inc.is_none());
        }
        if let Some(model) = task.spec.model.take() {
            if let Err(e) = task.coerce(model, env.node(), loc.node) {
                self.exec_fail(env, id, task, e);
                return;
            }
        }
        match resume {
            Resume::Guard => self.exec_issue_lock(env, id, task, loc.node),
            Resume::Action => self.exec_begin_action(env, id, task),
            Resume::Invoke => {
                task.invoke_at = Some(loc.node);
                self.exec_begin_invoke(env, id, task);
            }
        }
    }

    /// A bind whose locate came back empty. Table 2 lets it proceed only
    /// where acting needs no location (an unguarded `InvokeAt`, once the
    /// find said `NotFound`); anything else fails through the ladder.
    fn exec_unlocated(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        mut task: ExecTask,
        err: MageError,
    ) {
        let proceeds = task.spec.model.is_some()
            && task.spec.guard == Guard::Off
            && matches!(task.spec.action, ActionSpec::InvokeAt { .. })
            && matches!(err, MageError::NotFound(_));
        if proceeds {
            task.spec.model = None;
            self.exec_begin_action(env, id, task);
        } else {
            self.exec_fail(env, id, task, err);
        }
    }

    /// Records what a find, move or restore reply learned about the plan's
    /// object, then continues at `resume`.
    fn exec_learn(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        task: ExecTask,
        found: &FindReply,
        resume: Resume,
    ) {
        let loc = self.learn(task.spec.key, found);
        self.exec_located(env, id, task, resume, loc);
    }

    /// The one forget step of the retry table: spend a retry, drop the
    /// stale location knowledge (and, for advisory identity, the stale
    /// incarnation), repair the registry entry that misled us, and locate
    /// the object again.
    fn exec_retry(&mut self, env: &mut Env<'_, '_>, id: u64, mut task: ExecTask, resume: Resume) {
        task.retries -= 1;
        task.cloc = None;
        task.spec.location_hint = None;
        if !task.spec.identity_pinned {
            task.cinc = None;
            task.spec.expected_incarnation = None;
        }
        self.registry.remove(task.spec.key);
        self.exec_locate(env, id, task, resume);
    }

    /// Parks `task` under `token` until the reply its `phase` awaits.
    fn exec_park(&mut self, token: u64, mut task: ExecTask, phase: ExecPhase) {
        task.phase = phase;
        self.tasks.insert(token, Task::Exec(task));
    }

    // ---- ladder stages ----

    fn exec_issue_lock(&mut self, env: &mut Env<'_, '_>, id: u64, task: ExecTask, at: NodeId) {
        let target = task.lock_target(env.node());
        // The lock applies to the incarnation this plan resolved; a
        // re-creation racing the request is refused typed, not silently
        // locked.
        let args = proto::LockArgs {
            name: task.spec.key.id,
            client: env.node().as_raw(),
            target: target.as_raw(),
            expected: task.cinc.filter(|inc| !inc.is_none()),
        };
        self.call_service(env, at, self.ids.lock, &args, id);
        self.exec_park(id, task, ExecPhase::AwaitLock { at });
    }

    fn exec_begin_action(&mut self, env: &mut Env<'_, '_>, id: u64, mut task: ExecTask) {
        let me = env.node();
        match task.spec.action {
            ActionSpec::Stay => self.exec_begin_unlock(env, id, task),
            ActionSpec::Local => {
                let name = task.spec.key.id;
                task.invoke_at = Some(me);
                if let Some(invoke) = task.spec.invoke.as_ref() {
                    // A bind (advisory identity) re-resolves against the
                    // object actually hosted here; only pinned stubs keep
                    // their expectation.
                    if !task.spec.identity_pinned {
                        task.cinc = Some(self.local_incarnation(CompKey::object(name)));
                    }
                    // Same identity gate as the remote invoke path: a
                    // locally re-created impostor must not serve a stale
                    // stub's call.
                    if let Err(fault) = self.check_identity(name, task.cinc) {
                        env.count("stale_identity_refusals");
                        let err = proto::fault_to_error(&fault);
                        self.exec_fail(env, id, task, err);
                        return;
                    }
                    let method = self.syms.resolve_lossy(invoke.method);
                    match self.invoke_local(env, name, &method, &invoke.args) {
                        Ok(bytes) => {
                            task.result = Some(Bytes::from(bytes));
                            self.exec_begin_unlock(env, id, task);
                        }
                        Err(fault) => {
                            let err = proto::fault_to_error(&fault);
                            self.exec_fail(env, id, task, err);
                        }
                    }
                } else if self.has_component(CompKey::object(name)) {
                    self.exec_begin_unlock(env, id, task);
                } else {
                    let err = MageError::NotFound(self.name_str(name));
                    self.exec_fail(env, id, task, err);
                }
            }
            ActionSpec::InvokeAt { node } => {
                task.invoke_at = Some(NodeId::from_raw(node));
                self.exec_begin_invoke(env, id, task);
            }
            ActionSpec::InvokeAtCurrent => unreachable!("coercion resolved the current location"),
            ActionSpec::MoveTo { node } => {
                let cloc = task.cloc.expect("a bind locates before it acts");
                let dest = NodeId::from_raw(node);
                let name = task.spec.key.id;
                if cloc == dest {
                    // Already at the target: the engine-level mirror of
                    // coercion to RPC.
                    task.invoke_at = Some(dest);
                    self.exec_begin_invoke(env, id, task);
                } else if cloc == me {
                    // We host the object: run the transfer ourselves
                    // (Figure 7 without the moveTo hop).
                    self.exec_park(id, task, ExecPhase::AwaitMove);
                    self.begin_move_out(env, name, dest, MoveOrigin::Exec(id));
                } else {
                    // Ask the hosting namespace to transfer the object
                    // (Figure 7, message 3).
                    let args = proto::MoveToArgs {
                        name,
                        dest: dest.as_raw(),
                    };
                    self.call_service(env, cloc, self.ids.move_to, &args, id);
                    self.exec_park(id, task, ExecPhase::AwaitMove);
                }
            }
            ActionSpec::Instantiate { class, node, .. } => {
                let dest = NodeId::from_raw(node);
                if dest != me {
                    self.exec_instantiate_at(env, id, task, dest, false);
                } else if !self.classes.contains(&class) {
                    self.exec_fetch_class(env, id, task, me);
                } else {
                    let args = task.instantiate_args();
                    match self.instantiate_here(env, None, &args) {
                        Ok(incarnation) => {
                            task.cloc = Some(me);
                            task.cinc = Some(incarnation);
                            task.invoke_at = Some(me);
                            self.exec_begin_invoke(env, id, task);
                        }
                        Err(fault) => self.exec_fail(env, id, task, local_birth_error(fault)),
                    }
                }
            }
        }
    }

    /// Asks `dest` to instantiate the plan's object from its class;
    /// `retried_class` records whether a class push already preceded this
    /// request.
    fn exec_instantiate_at(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        task: ExecTask,
        dest: NodeId,
        retried_class: bool,
    ) {
        let args = task.instantiate_args();
        self.call_service(env, dest, self.ids.instantiate, &args, id);
        self.exec_park(
            id,
            task,
            ExecPhase::AwaitInstantiate {
                dest,
                retried_class,
            },
        );
    }

    /// Starts class logistics for an instantiation at `dest`: fetch the
    /// class from wherever the registry (or the home hint) says it lives.
    fn exec_fetch_class(&mut self, env: &mut Env<'_, '_>, id: u64, task: ExecTask, dest: NodeId) {
        let me = env.node();
        let class = task.class();
        let source = self
            .registry
            .lookup(CompKey::class(class))
            .map(|entry| entry.node)
            .filter(|n| *n != me)
            .or_else(|| {
                task.spec
                    .home_hint
                    .map(NodeId::from_raw)
                    .filter(|n| *n != me)
            });
        match source {
            Some(src) => {
                let args = proto::FetchClassArgs { class };
                self.call_service(env, src, self.ids.fetch_class, &args, id);
                self.exec_park(id, task, ExecPhase::AwaitFetchClass { dest });
            }
            None => {
                let class = self.name_str(class);
                self.exec_fail(env, id, task, MageError::ClassUnavailable(class));
            }
        }
    }

    fn exec_begin_invoke(&mut self, env: &mut Env<'_, '_>, id: u64, task: ExecTask) {
        let Some(invoke) = task.spec.invoke.as_ref() else {
            self.exec_begin_unlock(env, id, task);
            return;
        };
        let at = task.invoke_at.expect("invoke target resolved");
        let args = proto::InvokeArgsRef {
            name: task.spec.key.id,
            method: invoke.method,
            args: &invoke.args,
            expected: task.cinc.filter(|inc| !inc.is_none()),
        };
        if invoke.one_way {
            // Fire and forget: route the eventual reply to a token nobody
            // owns. The result "stays at the remote host" (§5).
            let noop = self.next_task;
            self.next_task += 1;
            self.call_service(env, at, self.ids.invoke, &args, noop);
            self.exec_begin_unlock(env, id, task);
        } else {
            self.call_service(env, at, self.ids.invoke, &args, id);
            self.exec_park(id, task, ExecPhase::AwaitInvoke);
        }
    }

    fn exec_begin_unlock(&mut self, env: &mut Env<'_, '_>, id: u64, task: ExecTask) {
        // An explicit lock keeps what it took.
        if task.locked_at.is_none() || matches!(task.spec.guard, Guard::Take { .. }) {
            self.exec_finish(env, task);
            return;
        }
        // The lock travelled with the object if it moved; release it where
        // the object now lives.
        let at = task
            .invoke_at
            .or(task.cloc)
            .or(task.locked_at)
            .expect("somewhere");
        let args = proto::UnlockArgs {
            name: task.spec.key.id,
            client: env.node().as_raw(),
        };
        self.call_service(env, at, self.ids.unlock, &args, id);
        self.exec_park(id, task, ExecPhase::AwaitUnlock);
    }

    fn exec_finish(&mut self, env: &mut Env<'_, '_>, task: ExecTask) {
        if let Some(err) = task.failure {
            self.complete(env, task.op, Err(err));
            return;
        }
        let me = env.node();
        let location = task.invoke_at.or(task.cloc).unwrap_or(me).as_raw();
        self.complete(
            env,
            task.op,
            Ok(Outcome {
                location,
                incarnation: task.cinc.unwrap_or(Incarnation::NONE),
                result: task.result,
                lock_kind: task.lock_kind,
                coerced: task.coerced,
            }),
        );
    }

    fn exec_fail(&mut self, env: &mut Env<'_, '_>, id: u64, task: ExecTask, err: MageError) {
        // Durability hook: before a crash-shaped failure surfaces, a
        // replicated object gets one consultation of its backup home. A
        // stored snapshot restores the object there (fresh incarnation),
        // the registry entry is repaired, and the operation retries; no
        // snapshot (or a dead backup) lets the original error through.
        let Some(mut task) = self.exec_try_restore(env, id, task, &err) else {
            return;
        };
        if task.locked_at.is_some() {
            // Release the lock before reporting the failure.
            task.failure = Some(err);
            self.exec_begin_unlock(env, id, task);
        } else {
            self.complete(env, task.op, Err(err));
        }
    }

    /// Starts the once-only backup consultation when `err` is a
    /// crash-shaped failure of a replicated object. Returns `None` when
    /// the task was parked (or resumed) on the restore path, or gives the
    /// task back for the ordinary failure path.
    fn exec_try_restore(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        mut task: ExecTask,
        err: &MageError,
    ) -> Option<ExecTask> {
        if task.restore_tried
            || task.locked_at.is_some()
            || !matches!(err, MageError::NotFound(_) | MageError::Unreachable { .. })
            || matches!(task.spec.action, ActionSpec::Instantiate { .. })
        {
            return Some(task);
        }
        let Some(backup) = task.spec.backup_hint else {
            return Some(task);
        };
        let name = task.spec.key.id;
        task.restore_tried = true;
        let backup = NodeId::from_raw(backup);
        if backup == env.node() {
            // This node *is* the backup home: restore in place.
            return match self.restore_local(env, name) {
                Ok(found) => {
                    self.exec_resume_after_restore(env, id, task, found);
                    None
                }
                Err(_) => Some(task), // no snapshot: the original error surfaces
            };
        }
        let args = proto::RestoreArgs { name };
        self.call_service(env, backup, self.ids.restore, &args, id);
        // No lock is held here, so `failure` is free to carry the error
        // that surfaces if the backup cannot restore.
        task.failure = Some(err.clone());
        self.exec_park(id, task, ExecPhase::AwaitRestore);
        None
    }

    /// Resumes the ladder after a successful restore: the object now lives
    /// at `found.location` under a fresh incarnation. A guarded bind takes
    /// its §4.4 lock there first (no lock is held on the restore path);
    /// otherwise invoke-shaped actions go straight to the invocation
    /// (mirroring the stale-location retry path) and move-shaped actions
    /// re-run the placement from the restored location.
    fn exec_resume_after_restore(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        mut task: ExecTask,
        found: FindReply,
    ) {
        task.spec.location_hint = Some(found.location);
        if !task.spec.identity_pinned {
            // Advisory identity (binds, replicated or unpinned handles)
            // re-resolves to the restored incarnation — recovery is fully
            // transparent. Pinned stubs keep their expectation: the retry
            // resolves to typed `StaleIdentity`, and the session's
            // explicit rebind is the observable trace the recovery leaves.
            task.spec.expected_incarnation = Some(found.incarnation).filter(|inc| !inc.is_none());
        }
        let resume = match task.spec.action {
            _ if task.spec.guard == Guard::Bracket => Resume::Guard,
            ActionSpec::MoveTo { .. } => Resume::Action,
            _ => Resume::Invoke,
        };
        self.exec_learn(env, id, task, &found, resume);
    }

    // ---- reply dispatch ----

    pub(crate) fn step_exec_reply(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        mut task: ExecTask,
        result: Result<Bytes, RmiError>,
    ) {
        let retry_at = result.as_ref().err().and_then(|e| task.retry_point(e));
        if let Some(resume) = retry_at.filter(|_| task.retries > 0) {
            self.exec_retry(env, id, task, resume);
            return;
        }
        match (task.phase, result) {
            (ExecPhase::AwaitUnlock, result) => {
                // An explicit unlock's failure is its outcome; a bracketed
                // bind's is only noted.
                match result {
                    Err(e) if task.spec.guard == Guard::Release => {
                        task.failure = Some(rmi_error_to_mage(&e));
                    }
                    Err(e) if env.trace_enabled() => {
                        env.note(format!("unlock after bind failed: {e}"));
                    }
                    _ => {}
                }
                task.locked_at = None;
                self.exec_finish(env, task);
            }
            (ExecPhase::AwaitRestore, result) => {
                // No snapshot, or a dead backup: the crash-shaped failure
                // that sent us here surfaces typed (`restore_tried` blocks
                // a second consultation).
                let original = task.failure.take().expect("restore carries its error");
                match result
                    .map_err(|_| original)
                    .and_then(|bytes| decode::<FindReply>(&bytes))
                {
                    Ok(found) => self.exec_resume_after_restore(env, id, task, found),
                    Err(e) => self.exec_fail(env, id, task, e),
                }
            }
            (
                ExecPhase::AwaitInstantiate {
                    dest,
                    retried_class: false,
                },
                Err(RmiError::Fault(Fault::ClassMissing(_))),
            ) => {
                let class = task.class();
                if self.classes.contains(&class) {
                    // We have the class: push it to the target
                    // (traditional REV ships local code to the server).
                    let class_args = self.class_args(class).expect("cached class defined");
                    self.push_class(env, dest, &class_args, id);
                    self.exec_park(id, task, ExecPhase::AwaitPushClass { dest });
                } else {
                    // Neither we nor the target have it: pull it first
                    // (GREV-style third-party placement).
                    self.exec_fetch_class(env, id, task, dest);
                }
            }
            (ExecPhase::AwaitFind { resume, retried }, Err(e)) => {
                // A dead hop: the entry that led there is stale, and the
                // walk earns its once-only retry from the home.
                if is_unreachable(&e) {
                    let (key, home) = (task.spec.key, task.spec.home_hint);
                    self.registry.remove(key);
                    if let Some(token) = self.retry_find_from_home(env, key, home, retried) {
                        let phase = ExecPhase::AwaitFind {
                            resume,
                            retried: true,
                        };
                        self.exec_park(token, task, phase);
                        return;
                    }
                }
                let err = rmi_error_to_mage(&e);
                self.exec_unlocated(env, id, task, err);
            }
            (_, Err(e)) => {
                let err = rmi_error_to_mage(&e);
                self.exec_fail(env, id, task, err);
            }
            (ExecPhase::AwaitFind { resume, .. }, Ok(bytes)) => match decode::<FindReply>(&bytes) {
                Ok(found) => self.exec_learn(env, id, task, &found, resume),
                Err(e) => self.exec_fail(env, id, task, e),
            },
            (ExecPhase::AwaitLock { at }, Ok(bytes)) => match decode::<LockKind>(&bytes) {
                Ok(kind) => {
                    task.locked_at = Some(at);
                    task.lock_kind = Some(kind);
                    self.exec_begin_action(env, id, task);
                }
                Err(e) => self.exec_fail(env, id, task, e),
            },
            (ExecPhase::AwaitMove, Ok(bytes)) => match decode::<FindReply>(&bytes) {
                Ok(found) => self.exec_learn(env, id, task, &found, Resume::Invoke),
                Err(e) => self.exec_fail(env, id, task, e),
            },
            (ExecPhase::AwaitFetchClass { dest }, Ok(bytes)) => {
                // Define the class locally (MAGE clones classes, §4.2),
                // behind the same gate as a pushed class.
                let defined = decode::<proto::ReceiveClassArgs>(&bytes).and_then(|args| {
                    let defined = self.receive_class(env, &args);
                    defined
                        .map(|()| args)
                        .map_err(|f| proto::fault_to_error(&f))
                });
                match defined {
                    Ok(class_args) => {
                        // Instantiate here, or push the class onward.
                        let me = env.node();
                        if dest == me {
                            self.exec_begin_action(env, id, task);
                        } else {
                            self.push_class(env, dest, &class_args, id);
                            self.exec_park(id, task, ExecPhase::AwaitPushClass { dest });
                        }
                    }
                    Err(e) => self.exec_fail(env, id, task, e),
                }
            }
            // The class is in place; retry the instantiation.
            (ExecPhase::AwaitPushClass { dest }, Ok(_)) => {
                self.exec_instantiate_at(env, id, task, dest, true);
            }
            (ExecPhase::AwaitInstantiate { dest, .. }, Ok(bytes)) => {
                // A malformed reply must surface, not silently yield
                // Incarnation::NONE — that would disable the identity
                // check for the fresh object.
                let incarnation = match decode::<Incarnation>(&bytes) {
                    Ok(incarnation) => incarnation,
                    Err(e) => {
                        self.exec_fail(env, id, task, e);
                        return;
                    }
                };
                self.registry
                    .update(task.spec.key, Located::new(dest, incarnation));
                task.cloc = Some(dest);
                task.cinc = Some(incarnation).filter(|inc| !inc.is_none());
                task.invoke_at = Some(dest);
                self.exec_begin_invoke(env, id, task);
            }
            (ExecPhase::AwaitInvoke, Ok(bytes)) => {
                task.result = Some(bytes);
                self.exec_begin_unlock(env, id, task);
            }
        }
    }

    /// Resumption point for a client-local move-out (the object we moved
    /// was hosted on this node).
    pub(crate) fn exec_move_done(
        &mut self,
        env: &mut Env<'_, '_>,
        id: u64,
        mut task: ExecTask,
        outcome: Result<(NodeId, Incarnation), MageError>,
    ) {
        match outcome {
            Ok((dest, incarnation)) => {
                task.cloc = Some(dest);
                task.cinc = Some(incarnation).filter(|inc| !inc.is_none());
                task.invoke_at = Some(dest);
                self.exec_begin_invoke(env, id, task);
            }
            Err(e) => self.exec_fail(env, id, task, e),
        }
    }
}
