//! Declarative per-object policy specs and the typed handles they
//! produce.
//!
//! MAGE's §3 insight is that *placement* policy belongs in first-class
//! objects (mobility attributes) instead of the call sites. [`ObjectSpec`]
//! generalises that idea to the rest of an object's lifecycle: creation is
//! a declaration of the object's whole policy set — initial state,
//! visibility, an optional mobility attribute deciding the *birthplace*,
//! a [`Durability`] policy deciding what survives a host crash, and
//! whether stubs derived from the handle pin identity. New policies get
//! one front door instead of another positional parameter.
//!
//! ```
//! use mage_core::workload_support::{methods, test_object_class};
//! use mage_core::{Durability, ObjectSpec, Runtime};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rt = Runtime::builder()
//!     .fast()
//!     .nodes(["lab", "sensor1", "sensor2"])
//!     .class(test_object_class())
//!     .build();
//! rt.deploy_class("TestObject", "lab")?;
//! let lab = rt.session("lab")?;
//!
//! // A replicated counter: checkpointed to sensor1 at creation and after
//! // every move and completed invocation; a crash of its host restores
//! // it at sensor1 under a fresh incarnation.
//! let mut counter = lab.create(
//!     ObjectSpec::new("counter")
//!         .class("TestObject")
//!         .state(&())
//!         .durability(Durability::Replicated { backups: 1 })
//!         .backup("sensor1")
//!         .pinned(true),
//! )?;
//! assert_eq!(lab.call_handle(&mut counter, methods::INC, &())?, 1);
//! # Ok(())
//! # }
//! ```

use crate::attribute::MobilityAttribute;
use crate::component::{Durability, Visibility};
use crate::error::MageError;
use crate::registry::Incarnation;
use crate::session::Stub;
use mage_sim::NodeId;
use serde::Serialize;

/// A declarative object-creation spec: name, class, initial state and the
/// object's policy set, assembled builder-style and executed by
/// [`Session::create`](crate::Session::create).
pub struct ObjectSpec {
    pub(crate) name: String,
    pub(crate) class: Option<String>,
    pub(crate) state: Result<Vec<u8>, MageError>,
    pub(crate) visibility: Visibility,
    pub(crate) mobility: Option<Box<dyn MobilityAttribute>>,
    pub(crate) durability: Durability,
    pub(crate) backup: Option<String>,
    pub(crate) pinned: bool,
}

impl ObjectSpec {
    /// Starts a spec for an object registered under `name`.
    ///
    /// The class comes from [`class`](ObjectSpec::class) or, failing that,
    /// from the [`mobility`](ObjectSpec::mobility) attribute's component.
    pub fn new(name: impl Into<String>) -> Self {
        ObjectSpec {
            name: name.into(),
            class: None,
            state: Ok(Vec::new()),
            visibility: Visibility::Public,
            mobility: None,
            durability: Durability::Volatile,
            backup: None,
            pinned: true,
        }
    }

    /// Sets the object's class (required unless a mobility attribute
    /// names it).
    #[must_use]
    pub fn class(mut self, class: impl Into<String>) -> Self {
        self.class = Some(class.into());
        self
    }

    /// Sets the constructor state (serialized now; a marshalling failure
    /// surfaces from [`Session::create`](crate::Session::create)).
    #[must_use]
    pub fn state<T: Serialize>(mut self, state: &T) -> Self {
        self.state = mage_codec::to_bytes(state).map_err(MageError::from);
        self
    }

    /// Sets the object's visibility (default [`Visibility::Public`]).
    #[must_use]
    pub fn visibility(mut self, visibility: Visibility) -> Self {
        self.visibility = visibility;
        self
    }

    /// Places the object's *birth* through a mobility attribute: the
    /// attribute's plan is consulted once at creation and its target
    /// namespace becomes the birthplace (and origin server). Also supplies
    /// the class when [`class`](ObjectSpec::class) was not called.
    #[must_use]
    pub fn mobility(mut self, attr: impl MobilityAttribute + 'static) -> Self {
        self.mobility = Some(Box::new(attr));
        self
    }

    /// Sets the durability policy (default [`Durability::Volatile`]).
    #[must_use]
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Names the backup home of a replicated object explicitly. Without
    /// this, the namespace after the birthplace (in id order, wrapping)
    /// is chosen. The backup home is fixed for the object's lifetime.
    #[must_use]
    pub fn backup(mut self, node: impl Into<String>) -> Self {
        self.backup = Some(node.into());
        self
    }

    /// Whether stubs derived from the returned handle pin identity
    /// (default `true`). Pinned stubs resolve to a typed
    /// [`MageError::StaleIdentity`] when the incarnation they were bound
    /// to is gone — [`Session::call_handle`](crate::Session::call_handle)
    /// then auto-rebinds replicated handles. Unpinned handles let the
    /// engine re-resolve identity silently (recovery is invisible).
    #[must_use]
    pub fn pinned(mut self, pinned: bool) -> Self {
        self.pinned = pinned;
        self
    }

    /// The class this spec resolves to.
    pub(crate) fn resolve_class(&self) -> Result<String, MageError> {
        if let Some(class) = &self.class {
            return Ok(class.clone());
        }
        if let Some(attr) = &self.mobility {
            return Ok(attr.component().class_name().to_owned());
        }
        Err(MageError::BadPlan(format!(
            "spec for {:?} names no class (use .class(..) or .mobility(..))",
            self.name
        )))
    }
}

impl std::fmt::Debug for ObjectSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectSpec")
            .field("name", &self.name)
            .field("class", &self.class)
            .field("visibility", &self.visibility)
            .field("durability", &self.durability)
            .field("backup", &self.backup)
            .field("pinned", &self.pinned)
            .field("has_mobility", &self.mobility.is_some())
            .finish_non_exhaustive()
    }
}

/// A typed handle to a created object: the stub (which carries
/// `(NameId, Incarnation)`) plus the policy set it was created under.
///
/// Unlike a bare [`Stub`], a handle knows its durability policy, so
/// [`Session::call_handle`](crate::Session::call_handle) can turn the
/// `StaleIdentity` a crash-restore leaves behind into an automatic rebind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectHandle {
    pub(crate) stub: Stub,
    pub(crate) durability: Durability,
    pub(crate) pinned: bool,
}

impl ObjectHandle {
    /// Wraps an existing stub in a policy-carrying handle (for clients
    /// that bound the object themselves and know its declared policies).
    pub fn new(stub: Stub, durability: Durability, pinned: bool) -> Self {
        ObjectHandle {
            stub,
            durability,
            pinned,
        }
    }

    /// The object's registered name.
    pub fn name(&self) -> &str {
        self.stub.object()
    }

    /// The object's class.
    pub fn class(&self) -> &str {
        self.stub.class()
    }

    /// Last known location of the object.
    pub fn location(&self) -> NodeId {
        self.stub.location()
    }

    /// The incarnation this handle is currently bound to (changes only
    /// through rebinds — including the automatic one
    /// [`Session::call_handle`](crate::Session::call_handle) performs for
    /// replicated objects after a crash-restore).
    pub fn incarnation(&self) -> Incarnation {
        Incarnation::from_raw(self.stub.incarnation())
    }

    /// The durability policy declared at creation.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Whether invocations through this handle pin identity.
    pub fn is_pinned(&self) -> bool {
        self.pinned
    }

    /// Borrows the underlying stub (for the stub-level `Session` API).
    pub fn stub(&self) -> &Stub {
        &self.stub
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Rev;

    #[test]
    fn class_resolution_prefers_explicit_then_mobility() {
        let explicit = ObjectSpec::new("x").class("A");
        assert_eq!(explicit.resolve_class().unwrap(), "A");
        let via_attr = ObjectSpec::new("x").mobility(Rev::new("B", "x", "n1"));
        assert_eq!(via_attr.resolve_class().unwrap(), "B");
        let neither = ObjectSpec::new("x");
        assert!(matches!(
            neither.resolve_class(),
            Err(MageError::BadPlan(_))
        ));
    }

    #[test]
    fn defaults_are_volatile_public_pinned() {
        let spec = ObjectSpec::new("x");
        assert_eq!(spec.visibility, Visibility::Public);
        assert_eq!(spec.durability, Durability::Volatile);
        assert!(spec.pinned);
        assert!(spec.backup.is_none());
        assert_eq!(spec.state.as_deref().unwrap(), &[] as &[u8]);
    }

    #[test]
    fn debug_shows_the_policy_set() {
        let spec = ObjectSpec::new("x")
            .class("A")
            .durability(Durability::Replicated { backups: 1 })
            .backup("n2");
        let dbg = format!("{spec:?}");
        assert!(dbg.contains("Replicated"));
        assert!(dbg.contains("n2"));
    }
}
