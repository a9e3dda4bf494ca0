//! Per-namespace client sessions.
//!
//! A [`Session`] is the client-side handle to one namespace of a running
//! [`Runtime`](crate::Runtime): it owns the client identity every
//! operation originates from, plus the per-client location cache of §3.5
//! ("private objects' cached location is authoritative; shared objects
//! must be found before use"). Two sessions obtained from the same
//! runtime interleave freely against one world — each `_async` operation
//! returns a typed [`Pending`] handle, and the driver decides when to pump
//! the world and collect results.
//!
//! Every operation takes one path: plan, issue the command, and let
//! [`Pending::wait`] record what it located and decode the result. A
//! blocking form is its `_async` form followed by `wait`; only object
//! creation, which has no async form, waits inline.
//!
//! ```
//! use mage_core::attribute::Rev;
//! use mage_core::workload_support::{methods, test_object_class};
//! use mage_core::{ObjectSpec, Runtime};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rt = Runtime::builder()
//!     .fast()
//!     .nodes(["lab", "sensor1"])
//!     .class(test_object_class())
//!     .build();
//! rt.deploy_class("TestObject", "lab")?;
//!
//! let lab = rt.session("lab")?;
//! lab.create(ObjectSpec::new("counter").class("TestObject"))?;
//!
//! // Typed descriptor: argument and result types check at compile time.
//! let rev = Rev::new("TestObject", "counter", "sensor1");
//! let stub = lab.bind(&rev)?;
//! let n = lab.call(&stub, methods::INC, &())?;
//! assert_eq!(n, 1);
//! # Ok(())
//! # }
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use mage_rmi::{NameId, SymbolTable};
use mage_sim::NodeId;
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::attribute::{BindView, MobilityAttribute, Mode, Target};
use crate::class::Method;
use crate::coercion::{coerce, Coerced, Situation};
use crate::component::{Durability, Visibility};
use crate::error::MageError;
use crate::lock::LockKind;
use crate::pending::{Completion, Pending};
use crate::proto::{ActionSpec, Command, ExecSpec, InvokeSpec, Outcome};
use crate::registry::{CompKey, Incarnation, Located};
use crate::runtime::{Directory, Inner};
use crate::spec::{ObjectHandle, ObjectSpec};

/// A client-side reference to a bound component: which namespace bound it,
/// and where the object was last known to live.
///
/// Invocations send the interned ids; the names themselves are shared
/// with the symbol table, so cloning a stub never allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stub {
    pub(crate) client: NodeId,
    pub(crate) at: NodeId,
    pub(crate) object: NameId,
    pub(crate) class: NameId,
    pub(crate) object_name: Arc<str>,
    pub(crate) class_name: Arc<str>,
    pub(crate) home: Option<NodeId>,
    /// Incarnation of the object this stub was bound against. Invocations
    /// carry it; if the name has since been re-bound to a different
    /// instance, the call resolves to [`MageError::StaleIdentity`] instead
    /// of silently reaching the impostor — rebind with
    /// [`Session::rebind`] to talk to the current object.
    pub(crate) incarnation: Incarnation,
}

impl Stub {
    /// The namespace that performed the bind (invocations originate here).
    pub fn client(&self) -> NodeId {
        self.client
    }

    /// Last known location of the object.
    pub fn location(&self) -> NodeId {
        self.at
    }

    /// The object's registered name.
    pub fn object(&self) -> &str {
        &self.object_name
    }

    /// The object's class.
    pub fn class(&self) -> &str {
        &self.class_name
    }

    /// The incarnation this stub is bound to (raw id; `0` = untracked).
    pub fn incarnation(&self) -> u64 {
        self.incarnation.as_raw()
    }
}

/// Everything a bind produced: the stub plus how coercion resolved it.
#[derive(Debug, Clone, PartialEq)]
pub struct BindReceipt {
    /// The stub for subsequent invocations.
    pub stub: Stub,
    /// How the coercion matrix resolved this bind (Table 2).
    pub coerced: Coerced,
    /// Lock kind acquired, when the plan was guarded.
    pub lock_kind: Option<LockKind>,
    /// Invocation result, when the bind included one.
    pub result: Option<Vec<u8>>,
}

/// The per-client cache a session owns (§3.5), keyed by interned
/// component keys — a lookup is an 8-byte comparison, no hashing of
/// strings.
#[derive(Debug, Default)]
pub(crate) struct SessionState {
    /// Where this client last saw each component — and which incarnation
    /// it saw there. Identity rides with location knowledge everywhere.
    pub cached_loc: BTreeMap<CompKey, Located>,
}

/// Everything a bind plan resolved before execution; carried by the
/// [`Pending`] so the receipt can be assembled when the op completes.
pub(crate) struct BindContext {
    client: NodeId,
    object: NameId,
    class: NameId,
    object_name: Arc<str>,
    class_name: Arc<str>,
    coerced: Coerced,
    is_factory: bool,
}

impl BindContext {
    /// Caches where the bind left the component (and, for factories, its
    /// new home), then assembles the receipt.
    pub(crate) fn receipt(
        self,
        outcome: Outcome,
        dir: &mut Directory,
        state: &mut SessionState,
    ) -> BindReceipt {
        let at = NodeId::from_raw(outcome.location);
        let key = CompKey::object(self.object);
        state
            .cached_loc
            .insert(key, Located::new(at, outcome.incarnation));
        if self.is_factory {
            dir.homes.insert(key, at);
        }
        BindReceipt {
            stub: Stub {
                client: self.client,
                at,
                object: self.object,
                class: self.class,
                object_name: self.object_name,
                class_name: self.class_name,
                home: dir.homes.get(&key).copied(),
                incarnation: outcome.incarnation,
            },
            coerced: self.coerced,
            lock_kind: outcome.lock_kind,
            result: outcome.result,
        }
    }
}

/// Decodes an invocation's marshalled result.
fn decode_result<R: DeserializeOwned>(outcome: Outcome) -> Result<R, MageError> {
    let bytes = outcome
        .result
        .ok_or_else(|| MageError::Rmi("invocation returned no result".into()))?;
    mage_codec::from_bytes(&bytes).map_err(MageError::from)
}

/// Splits a bind-and-invoke receipt into the stub and the decoded result
/// (`None` for one-way attributes).
fn decode_invoked<R: DeserializeOwned>(
    receipt: BindReceipt,
) -> Result<(Stub, Option<R>), MageError> {
    let result = match receipt.result {
        Some(bytes) => Some(mage_codec::from_bytes(&bytes)?),
        None => None,
    };
    Ok((receipt.stub, result))
}

/// A client handle bound to one namespace of a running deployment.
///
/// Obtained from [`Runtime::session`](crate::Runtime::session). Cloning a
/// session shares its cache; sessions for different namespaces are fully
/// independent views over the same world.
#[derive(Clone)]
pub struct Session {
    name: String,
    client: NodeId,
    inner: Rc<RefCell<Inner>>,
    state: Rc<RefCell<SessionState>>,
    syms: Arc<SymbolTable>,
}

impl Session {
    pub(crate) fn new(name: String, client: NodeId, inner: Rc<RefCell<Inner>>) -> Self {
        let syms = Arc::clone(&inner.borrow().syms);
        Session {
            name,
            client,
            inner,
            state: Rc::new(RefCell::new(SessionState::default())),
            syms,
        }
    }

    /// The namespace this session operates from.
    pub fn client(&self) -> NodeId {
        self.client
    }

    /// The namespace's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This client's view of where every known object lives (for system
    /// snapshots like the paper's Figure 6).
    pub fn directory(&self) -> Vec<(String, NodeId)> {
        let mut entries: Vec<(String, NodeId)> = self
            .state
            .borrow()
            .cached_loc
            .iter()
            .map(|(key, loc)| (key.display(&self.syms), loc.node))
            .collect();
        entries.sort();
        entries
    }

    // ---- internals ----

    fn node_id(&self, name: &str) -> Result<NodeId, MageError> {
        self.inner.borrow().node_id(name)
    }

    /// The text behind an interned name (shared with the symbol table).
    fn name_of(&self, id: NameId) -> Arc<str> {
        self.syms.resolve_lossy(id)
    }

    /// Raw id of the origin server of object `name`, if known.
    fn home_hint(&self, name: NameId) -> Option<u32> {
        let inner = self.inner.borrow();
        inner
            .dir
            .homes
            .get(&CompKey::object(name))
            .map(|n| n.as_raw())
    }

    /// Issues a command and blocks until its outcome arrives (object
    /// creation only; every other operation returns a [`Pending`]).
    fn command(&self, cmd: Command) -> Result<Outcome, MageError> {
        self.inner.borrow_mut().command_sync(self.client, cmd)
    }

    /// Issues a command and returns a typed handle to its outcome.
    fn issue<T>(&self, cmd: Command, completion: Completion<T>) -> Pending<T> {
        let op = self.inner.borrow_mut().issue(self.client, cmd);
        Pending::new(
            op,
            Rc::clone(&self.inner),
            Rc::clone(&self.state),
            completion,
        )
    }

    // ---- object creation ----

    /// Creates an object from a declarative [`ObjectSpec`]: name, class,
    /// initial state, visibility, an optional mobility attribute deciding
    /// the birthplace, and the durability policy. Returns a typed
    /// [`ObjectHandle`] carrying `(name, incarnation)` plus the policy
    /// set, so policy-aware operations like
    /// [`call_handle`](Session::call_handle) know how to react to
    /// crash-induced identity changes.
    ///
    /// # Errors
    ///
    /// Fails if the class is unresolvable or not deployed at the
    /// birthplace, the name is taken there, a replicated spec cannot
    /// resolve a backup home, or the initial state failed to marshal.
    pub fn create(&self, spec: ObjectSpec) -> Result<ObjectHandle, MageError> {
        let class = spec.resolve_class()?;
        let ObjectSpec {
            name,
            state,
            visibility,
            mobility,
            durability,
            backup,
            pinned,
            ..
        } = spec;
        let state = state?;

        // Birthplace: the mobility attribute's plan target, or here.
        let target = match &mobility {
            None => self.client,
            Some(attr) => {
                let plan = self.plan_with(attr.as_ref(), None)?;
                match plan.target {
                    Target::Client | Target::Current => self.client,
                    Target::Node(ref node) => self.node_id(node)?,
                }
            }
        };

        // Backup home of a replicated object: explicit, or the namespace
        // after the birthplace in id order. Fixed for the object's life.
        let backup_node = match durability {
            Durability::Volatile => None,
            Durability::Replicated { .. } => Some(match backup {
                Some(node) => self.node_id(&node)?,
                None => {
                    let count = self.inner.borrow().ids.len() as u32;
                    if count < 2 {
                        return Err(MageError::BadPlan(
                            "replication needs at least two namespaces".into(),
                        ));
                    }
                    NodeId::from_raw((target.as_raw() + 1) % count)
                }
            }),
        };

        let object_id = self.syms.intern(&name);
        let class_id = self.syms.intern(&class);
        let backup_raw = backup_node.map(|n| n.as_raw());
        let outcome = if target == self.client {
            self.command(Command::CreateObject {
                class,
                name,
                state,
                visibility,
                durability,
                backup: backup_raw,
            })?
        } else {
            // Remote birth: the ordinary instantiate ladder (with class
            // logistics) places the object at the attribute's target.
            let class_key = CompKey::class(class_id);
            let home_hint = self
                .inner
                .borrow()
                .dir
                .homes
                .get(&class_key)
                .map(|n| n.as_raw());
            let exec = ExecSpec {
                class: class_id,
                object: Some(object_id),
                location_hint: None,
                expected_incarnation: None,
                identity_pinned: false,
                home_hint,
                backup_hint: backup_raw,
                action: ActionSpec::Instantiate {
                    node: target.as_raw(),
                    state,
                    visibility,
                    durability,
                    backup: backup_raw,
                    // Creation, not factory rebind: a taken name errors.
                    replace: false,
                },
                invoke: None,
                guard: false,
            };
            self.command(Command::Execute(exec))?
        };

        let at = NodeId::from_raw(outcome.location);
        let key = CompKey::object(object_id);
        let mut inner = self.inner.borrow_mut();
        inner.dir.homes.insert(key, at);
        inner.dir.visibility.insert(object_id, visibility);
        match backup_node {
            Some(backup) => {
                inner.dir.backups.insert(key, backup);
            }
            None => {
                // A volatile re-creation under a previously replicated
                // name must not leave a stale backup hint behind.
                inner.dir.backups.remove(&key);
            }
        }
        drop(inner);
        self.state
            .borrow_mut()
            .cached_loc
            .insert(key, Located::new(at, outcome.incarnation));
        Ok(ObjectHandle {
            stub: Stub {
                client: self.client,
                at,
                object: object_id,
                class: class_id,
                object_name: self.name_of(object_id),
                class_name: self.name_of(class_id),
                home: Some(at),
                incarnation: outcome.incarnation,
            },
            durability,
            pinned,
        })
    }

    // ---- find ----

    /// Locates a component from this session's point of view.
    ///
    /// # Errors
    ///
    /// Returns [`MageError::NotFound`] when no forwarding chain reaches it.
    pub fn find(&self, name: &str) -> Result<NodeId, MageError> {
        self.find_async(name)?.wait()
    }

    /// Starts a find without blocking.
    ///
    /// # Errors
    ///
    /// Never fails at issue time today; kept fallible for symmetry with
    /// the other `_async` forms.
    pub fn find_async(&self, name: &str) -> Result<Pending<NodeId>, MageError> {
        Ok(self.find_key_async(CompKey::parse(&self.syms, name)))
    }

    /// Starts a find of an interned component key.
    fn find_key_async(&self, key: CompKey) -> Pending<NodeId> {
        let home_hint = self.inner.borrow().dir.homes.get(&key).map(|n| n.as_raw());
        self.issue(
            Command::Find { key, home_hint },
            Completion::Outcome {
                located: Some(key),
                decode: |outcome| Ok(NodeId::from_raw(outcome.location)),
            },
        )
    }

    /// Explicitly re-binds a stale stub to whatever incarnation currently
    /// answers to its name: runs a fresh find (which learns the current
    /// location *and* incarnation) and returns an updated stub.
    ///
    /// This is the recovery path for [`MageError::StaleIdentity`]: the
    /// runtime never silently rebinds — re-creation after a crash, or a
    /// re-created copy surviving next to a partitioned-away original, is
    /// something the session must acknowledge by calling this.
    ///
    /// # Errors
    ///
    /// Returns [`MageError::NotFound`] when nothing answers to the name.
    pub fn rebind(&self, stub: &Stub) -> Result<Stub, MageError> {
        self.inner.borrow_mut().world.bump_metric("rebinds");
        let key = CompKey::object(stub.object);
        let loc = self.find_key_async(key).wait()?;
        let entry = self
            .state
            .borrow()
            .cached_loc
            .get(&key)
            .copied()
            .unwrap_or(Located::untracked(loc));
        Ok(Stub {
            client: self.client,
            at: entry.node,
            incarnation: entry.incarnation,
            ..stub.clone()
        })
    }

    // ---- bind ----

    /// Binds a mobility attribute, returning a stub.
    ///
    /// This is the paper's `o = ma.bind()` (§3.1): find the component,
    /// consult the attribute's plan, apply mobility coercion, and run the
    /// resulting placement protocol.
    ///
    /// # Errors
    ///
    /// Propagates coercion errors (Table 2's exception cells), lookup
    /// failures and protocol denials.
    pub fn bind(&self, attr: &dyn MobilityAttribute) -> Result<Stub, MageError> {
        self.bind_async(attr)?.wait()
    }

    /// Binds and returns the full receipt (coercion outcome, lock kind).
    ///
    /// # Errors
    ///
    /// Same as [`Session::bind`].
    pub fn bind_full(&self, attr: &dyn MobilityAttribute) -> Result<BindReceipt, MageError> {
        self.bind_with(attr, None, Ok)?.wait()
    }

    /// Starts a bind without blocking on the placement protocol.
    ///
    /// The bind *plan* (locating the component, consulting the attribute,
    /// applying coercion) resolves eagerly — it may cost one synchronous
    /// find round-trip — but the placement protocol itself runs
    /// asynchronously, so many binds can be in flight at once.
    ///
    /// # Errors
    ///
    /// Same as [`Session::bind`] for planning-stage failures.
    pub fn bind_async(&self, attr: &dyn MobilityAttribute) -> Result<Pending<Stub>, MageError> {
        self.bind_with(attr, None, |receipt| Ok(receipt.stub))
    }

    /// Binds and invokes in a single bracketed engine operation (the §4.4
    /// `lock → bind → invoke → unlock` pattern when the plan is guarded).
    ///
    /// Returns the stub and the decoded result (`None` for one-way
    /// attributes such as mobile agents).
    ///
    /// # Errors
    ///
    /// Same as [`Session::bind`], plus marshalling failures.
    pub fn bind_invoke<A, R>(
        &self,
        attr: &dyn MobilityAttribute,
        method: Method<A, R>,
        args: &A,
    ) -> Result<(Stub, Option<R>), MageError>
    where
        A: Serialize,
        R: DeserializeOwned,
    {
        self.bind_invoke_async(attr, method, args)?.wait()
    }

    /// Starts a bind-and-invoke without blocking.
    ///
    /// # Errors
    ///
    /// Same as [`Session::bind_invoke`] for planning-stage failures.
    pub fn bind_invoke_async<A, R>(
        &self,
        attr: &dyn MobilityAttribute,
        method: Method<A, R>,
        args: &A,
    ) -> Result<Pending<(Stub, Option<R>)>, MageError>
    where
        A: Serialize,
        R: DeserializeOwned,
    {
        let invoke = InvokeSpec {
            method: self.syms.intern(method.name()),
            args: mage_codec::to_bytes(args)?,
            one_way: attr.one_way(),
        };
        self.bind_with(attr, Some(invoke), decode_invoked::<R>)
    }

    /// Plans a bind (optionally carrying an invocation) and issues it; the
    /// receipt is assembled on completion and handed to `decode`.
    fn bind_with<T>(
        &self,
        attr: &dyn MobilityAttribute,
        invoke: Option<InvokeSpec>,
        decode: fn(BindReceipt) -> Result<T, MageError>,
    ) -> Result<Pending<T>, MageError> {
        let (spec, ctx) = self.plan_exec(attr, invoke)?;
        Ok(self.issue(Command::Execute(spec), Completion::Bind { ctx, decode }))
    }

    /// Consults the attribute's plan against a view of the system with the
    /// given location knowledge.
    fn plan_with(
        &self,
        attr: &dyn MobilityAttribute,
        location: Option<NodeId>,
    ) -> Result<crate::attribute::BindPlan, MageError> {
        let inner = self.inner.borrow();
        let view = BindView::new(
            self.client,
            location,
            &inner.ids,
            &inner.dir.loads,
            inner.world.now(),
        );
        attr.plan(&view)
    }

    /// Resolves an attribute's plan into an executable spec, using this
    /// session's cached knowledge (the client half of the old monolithic
    /// bind).
    fn plan_exec(
        &self,
        attr: &dyn MobilityAttribute,
        invoke: Option<InvokeSpec>,
    ) -> Result<(ExecSpec, BindContext), MageError> {
        let client_id = self.client;
        let component = attr.component();
        let base_name = component
            .object_name()
            .ok_or_else(|| MageError::BadPlan("attribute has no object name".into()))?;
        let base_id = self.syms.intern(base_name);
        let base_key = CompKey::object(base_id);
        let class_id = self.syms.intern(component.class_name());

        // Preliminary plan using cached knowledge (private objects'
        // cached location is authoritative, §3.5). A fresh session falls
        // back to the shared directory's origin-server knowledge for
        // private objects ("clients share the name of the mobile object's
        // origin server", §7); if the attribute's plan still needs a
        // location, locate it and plan again.
        let cached = self
            .state
            .borrow()
            .cached_loc
            .get(&base_key)
            .map(|entry| entry.node)
            .or_else(|| {
                let inner = self.inner.borrow();
                match inner.dir.visibility.get(&base_id) {
                    Some(Visibility::Private) => inner.dir.homes.get(&base_key).copied(),
                    _ => None,
                }
            });
        let mut did_find = false;
        let mut plan = match self.plan_with(attr, cached) {
            Ok(plan) => plan,
            // Only a location-shaped failure justifies finding and
            // re-planning; other plan errors (and any error once a
            // location was already known) surface untouched, without
            // consulting a stateful planner a second time.
            Err(MageError::NotFound(missing)) if cached.is_none() => {
                let Ok(loc) = self.find_key_async(base_key).wait() else {
                    return Err(MageError::NotFound(missing));
                };
                did_find = true;
                self.plan_with(attr, Some(loc))?
            }
            Err(err) => return Err(err),
        };
        let located = if did_find {
            self.state
                .borrow()
                .cached_loc
                .get(&base_key)
                .map(|entry| entry.node)
        } else {
            cached
        };

        let is_factory = matches!(plan.mode, Mode::Factory { .. });
        let location = if is_factory {
            None // a fresh instance is about to be created
        } else {
            let public = self
                .inner
                .borrow()
                .dir
                .visibility
                .get(&base_id)
                .copied()
                .unwrap_or(Visibility::Public)
                == Visibility::Public;
            let known = if did_find {
                located // just found; don't pay a second lookup
            } else if public || located.is_none() {
                // Shared objects may have been moved by another session and
                // must be found before use (§3.5).
                match self.find_key_async(base_key).wait() {
                    Ok(loc) => Some(loc),
                    Err(MageError::NotFound(_)) => None,
                    Err(e) => return Err(e),
                }
            } else {
                located
            };
            if !did_find && known != cached {
                plan = self.plan_with(attr, known)?;
            }
            known
        };

        // Resolve the plan's target to a node.
        let target = match &plan.target {
            Target::Client => Some(client_id),
            Target::Node(name) => Some(self.node_id(name)?),
            Target::Current => location,
        };
        let classify_target = match &plan.target {
            Target::Current => None,
            _ => target,
        };
        let situation = Situation::classify(client_id, classify_target, location);
        let coerced = coerce(attr.model(), situation)?;

        let action = match coerced {
            Coerced::AsLpc => ActionSpec::Local,
            Coerced::AsRpc => ActionSpec::InvokeAt {
                node: location
                    .expect("coerced to RPC implies a located component")
                    .as_raw(),
            },
            Coerced::Proceed => match plan.mode.clone() {
                Mode::Stationary => match &plan.target {
                    Target::Client => ActionSpec::Local,
                    Target::Node(_) => ActionSpec::InvokeAt {
                        node: target.expect("named target resolved").as_raw(),
                    },
                    Target::Current => match location {
                        Some(loc) => ActionSpec::InvokeAt { node: loc.as_raw() },
                        None => return Err(MageError::NotFound(base_name.to_owned())),
                    },
                },
                Mode::Move => {
                    let dest =
                        target.ok_or_else(|| MageError::BadPlan("move needs a target".into()))?;
                    if location.is_none() {
                        return Err(MageError::NotFound(base_name.to_owned()));
                    }
                    ActionSpec::MoveTo {
                        node: dest.as_raw(),
                    }
                }
                Mode::Factory { state, visibility } => {
                    self.inner
                        .borrow_mut()
                        .dir
                        .visibility
                        .insert(base_id, visibility);
                    // Attribute factories declare no durability policy of
                    // their own (policy-bearing creation goes through
                    // `Session::create`) and keep RMI-style rebind
                    // semantics: a fresh instance replaces a predecessor.
                    ActionSpec::Instantiate {
                        node: target.unwrap_or(client_id).as_raw(),
                        state,
                        visibility,
                        durability: Durability::Volatile,
                        backup: None,
                        replace: true,
                    }
                }
            },
        };

        // Identity expectation: whatever location this plan settled on,
        // if the session's cache agrees on the node it also knows which
        // incarnation it expects to find there. An invocation reaching a
        // different incarnation resolves to `StaleIdentity`.
        let expected_incarnation = location.and_then(|loc| {
            self.state
                .borrow()
                .cached_loc
                .get(&base_key)
                .copied()
                .filter(|entry| entry.node == loc)
                .map(|entry| entry.incarnation)
                .filter(|inc| !inc.is_none())
        });
        let inner = self.inner.borrow();
        let spec = ExecSpec {
            class: class_id,
            // Factory binds register the fresh instance under the
            // component's object name, replacing any previous instance
            // (RMI-style rebind); that is how the paper's REV factory
            // creates `geoData` on `sensor1` for later attributes to bind
            // to (§3.6).
            object: Some(base_id),
            location_hint: location.map(|n| n.as_raw()),
            expected_incarnation,
            identity_pinned: false,
            home_hint: inner
                .dir
                .homes
                .get(&base_key)
                .or_else(|| inner.dir.homes.get(&CompKey::class(class_id)))
                .map(|n| n.as_raw()),
            backup_hint: inner.dir.backups.get(&base_key).map(|n| n.as_raw()),
            action,
            invoke,
            guard: plan.guard,
        };
        Ok((
            spec,
            BindContext {
                client: client_id,
                object: base_id,
                class: class_id,
                object_name: self.name_of(base_id),
                class_name: self.name_of(class_id),
                coerced,
                is_factory,
            },
        ))
    }

    // ---- invocation ----

    /// Invokes a typed method through a stub and decodes the result.
    ///
    /// # Errors
    ///
    /// Propagates invocation faults and marshalling failures.
    pub fn call<A, R>(&self, stub: &Stub, method: Method<A, R>, args: &A) -> Result<R, MageError>
    where
        A: Serialize,
        R: DeserializeOwned,
    {
        self.call_async(stub, method, args)?.wait()
    }

    /// Starts a typed invocation without blocking.
    ///
    /// # Errors
    ///
    /// Propagates marshalling failures at issue time.
    pub fn call_async<A, R>(
        &self,
        stub: &Stub,
        method: Method<A, R>,
        args: &A,
    ) -> Result<Pending<R>, MageError>
    where
        A: Serialize,
        R: DeserializeOwned,
    {
        let method = self.syms.intern(method.name());
        Ok(self.invoke(stub, method, mage_codec::to_bytes(args)?, true))
    }

    /// Issues a plain invocation through a stub.
    ///
    /// Location and identity separate here: the session cache advises
    /// *where* to send the call (objects move behind a stub's back, §3.5),
    /// but the *identity* invoked is pinned by the stub itself — a stub
    /// either reaches the object it was bound to or resolves to
    /// `StaleIdentity`, even when the session already knows about a
    /// replacement. Rebinding to the replacement is an explicit act
    /// ([`Session::rebind`]), never a side effect of a cache refresh.
    /// Unpinned handles (`pinned == false`) let the engine re-resolve
    /// identity, so recovery of a replicated object is invisible to the
    /// caller.
    fn invoke<R: DeserializeOwned>(
        &self,
        stub: &Stub,
        method: NameId,
        args: Vec<u8>,
        pinned: bool,
    ) -> Pending<R> {
        let key = CompKey::object(stub.object);
        let at = self
            .state
            .borrow()
            .cached_loc
            .get(&key)
            .map(|entry| entry.node)
            .unwrap_or(stub.at);
        let spec = ExecSpec {
            class: stub.class,
            object: Some(stub.object),
            location_hint: Some(at.as_raw()),
            expected_incarnation: Some(stub.incarnation).filter(|inc| !inc.is_none()),
            identity_pinned: pinned,
            home_hint: stub.home.map(|n| n.as_raw()),
            backup_hint: self
                .inner
                .borrow()
                .dir
                .backups
                .get(&key)
                .map(|n| n.as_raw()),
            action: ActionSpec::InvokeAt { node: at.as_raw() },
            invoke: Some(InvokeSpec {
                method,
                args,
                one_way: false,
            }),
            guard: false,
        };
        self.issue(
            Command::Execute(spec),
            Completion::Outcome {
                located: Some(key),
                decode: decode_result::<R>,
            },
        )
    }

    /// Invokes a typed method through an [`ObjectHandle`], applying its
    /// policy set.
    ///
    /// For a [`Durability::Replicated`] handle, a typed
    /// [`MageError::StaleIdentity`] — the trace a crash-restore (or a
    /// re-creation) leaves on pinned stubs — triggers one automatic
    /// rebind-and-retry: the handle re-binds to the incarnation now
    /// answering to the name (the restored object, state intact) and the
    /// call repeats. Unpinned handles never see the stale identity at all
    /// — the engine re-resolves identity in place. Volatile pinned
    /// handles surface `StaleIdentity` exactly like a bare stub, because
    /// a volatile successor shares only the name, not the state.
    ///
    /// The handle's location and incarnation are refreshed from whatever
    /// the call learned.
    ///
    /// # Errors
    ///
    /// Propagates invocation faults and marshalling failures; the rebind
    /// path surfaces [`MageError::NotFound`] when nothing answers to the
    /// name anymore (e.g. the backup home died too).
    pub fn call_handle<A, R>(
        &self,
        handle: &mut ObjectHandle,
        method: Method<A, R>,
        args: &A,
    ) -> Result<R, MageError>
    where
        A: Serialize,
        R: DeserializeOwned,
    {
        let method = self.syms.intern(method.name());
        let bytes = mage_codec::to_bytes(args)?;
        let first = self
            .invoke(&handle.stub, method, bytes, handle.pinned)
            .wait();
        let out = match first {
            Err(MageError::StaleIdentity { .. }) if handle.durability.is_replicated() => {
                let fresh = self.rebind(&handle.stub)?;
                handle.stub = fresh;
                self.inner.borrow_mut().world.bump_metric("auto_rebinds");
                // The rare retry marshals the arguments again rather than
                // every call keeping a copy for it.
                let bytes = mage_codec::to_bytes(args)?;
                self.invoke(&handle.stub, method, bytes, handle.pinned)
                    .wait()?
            }
            other => other?,
        };
        self.refresh_handle(handle);
        Ok(out)
    }

    /// Updates a handle's stub from the session cache (location always;
    /// incarnation only for unpinned handles, where identity tracking is
    /// the engine's job, not the caller's).
    fn refresh_handle(&self, handle: &mut ObjectHandle) {
        let key = CompKey::object(handle.stub.object);
        if let Some(entry) = self.state.borrow().cached_loc.get(&key) {
            handle.stub.at = entry.node;
            if !handle.pinned && !entry.incarnation.is_none() {
                handle.stub.incarnation = entry.incarnation;
            }
        }
    }

    // ---- locking (§4.4) ----

    /// Acquires a stay/move lock on `name`; the kind depends on whether
    /// the object already resides at `target`.
    ///
    /// # Errors
    ///
    /// Fails if the object cannot be located.
    pub fn lock(&self, name: &str, target: &str) -> Result<LockKind, MageError> {
        self.lock_async(name, target)?.wait()
    }

    /// Starts a lock acquisition without blocking (the §4.4 contention
    /// scenarios issue several of these before pumping the world).
    ///
    /// # Errors
    ///
    /// Fails on unknown namespace names.
    pub fn lock_async(&self, name: &str, target: &str) -> Result<Pending<LockKind>, MageError> {
        let target = self.node_id(target)?;
        let name = self.syms.intern(name);
        let home_hint = self.home_hint(name);
        Ok(self.issue(
            Command::Lock {
                name,
                target: target.as_raw(),
                home_hint,
            },
            Completion::Outcome {
                located: None,
                decode: |outcome| {
                    outcome
                        .lock_kind
                        .ok_or_else(|| MageError::Rmi("lock reply carried no kind".into()))
                },
            },
        ))
    }

    /// Releases this client's lock on `name`.
    ///
    /// # Errors
    ///
    /// Fails if the object cannot be located.
    pub fn unlock(&self, name: &str) -> Result<(), MageError> {
        let name = self.syms.intern(name);
        let home_hint = self.home_hint(name);
        self.issue(
            Command::Unlock { name, home_hint },
            Completion::Outcome {
                located: None,
                decode: |_| Ok(()),
            },
        )
        .wait()
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("name", &self.name)
            .field("client", &self.client)
            .field("cached_objects", &self.state.borrow().cached_loc.len())
            .finish_non_exhaustive()
    }
}
