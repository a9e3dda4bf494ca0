//! The built-in mobility attributes (Figure 5's concrete classes).

use std::cell::Cell;

use crate::attribute::{BindPlan, BindView, MobilityAttribute, Mode, Target};
use crate::component::{Component, ModelKind, Visibility};
use crate::error::MageError;

/// The three REV/COD semantics MAGE supports when binding to class/object
/// pairs (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FactoryMode {
    /// Always move the existing object.
    ObjectMove,
    /// Instantiate a fresh object at the target on every bind
    /// (the traditional object-factory definition).
    Traditional,
    /// Instantiate on the first bind, move that same object afterwards.
    SingleUse,
}

/// Shared placement machinery for the movement-capable attributes.
#[derive(Debug)]
struct Placement {
    factory: FactoryMode,
    instantiated: Cell<bool>,
    init_state: Vec<u8>,
    visibility: Visibility,
    guard: Cell<bool>,
}

impl Placement {
    fn object_move() -> Self {
        Placement {
            factory: FactoryMode::ObjectMove,
            instantiated: Cell::new(false),
            init_state: Vec::new(),
            visibility: Visibility::Public,
            guard: Cell::new(false),
        }
    }

    fn factory() -> Self {
        Placement {
            factory: FactoryMode::Traditional,
            ..Placement::object_move()
        }
    }

    fn single_use() -> Self {
        Placement {
            factory: FactoryMode::SingleUse,
            ..Placement::object_move()
        }
    }

    fn mode(&self, view: &BindView<'_>) -> Mode {
        match self.factory {
            FactoryMode::ObjectMove => Mode::Move,
            FactoryMode::Traditional => Mode::Factory {
                state: self.init_state.clone(),
                visibility: self.visibility,
            },
            FactoryMode::SingleUse => {
                // Instantiate the first time (or if the instance vanished);
                // thereafter move the instance we created.
                if self.instantiated.get() && view.location().is_some() {
                    Mode::Move
                } else {
                    self.instantiated.set(true);
                    Mode::Factory {
                        state: self.init_state.clone(),
                        visibility: self.visibility,
                    }
                }
            }
        }
    }
}

macro_rules! placement_builders {
    ($ty:ident) => {
        impl $ty {
            /// Supplies constructor state for factory binds.
            #[must_use]
            pub fn with_init_state(mut self, state: Vec<u8>) -> Self {
                self.placement.init_state = state;
                self
            }

            /// Sets the visibility of objects this attribute instantiates.
            #[must_use]
            pub fn with_visibility(mut self, visibility: Visibility) -> Self {
                self.placement.visibility = visibility;
                self
            }

            /// Brackets binds with a stay/move lock (§4.4).
            #[must_use]
            pub fn guarded(self) -> Self {
                self.placement.guard.set(true);
                self
            }
        }
    };
}

/// Local procedure call: the component must already be local; invoke it in
/// place. Included because "programmers employ it in distributed systems
/// wherever possible because of its inherent efficiency" (§2).
#[derive(Debug)]
pub struct Lpc {
    component: Component,
}

impl Lpc {
    /// Binds LPC to an existing object.
    pub fn new(class: impl Into<String>, object: impl Into<String>) -> Self {
        Lpc {
            component: Component::object(class, object),
        }
    }
}

impl MobilityAttribute for Lpc {
    fn name(&self) -> &str {
        "LPC"
    }

    fn model(&self) -> ModelKind {
        ModelKind::Lpc
    }

    fn component(&self) -> &Component {
        &self.component
    }

    fn plan(&self, _view: &BindView<'_>) -> Result<BindPlan, MageError> {
        Ok(BindPlan {
            target: Target::Client,
            mode: Mode::Stationary,
            guard: false,
        })
    }
}

/// Remote procedure call: the component must already reside at the target;
/// MAGE RPC "denotes an immobile object" and throws if the object is not
/// found on its target (§4.2).
#[derive(Debug)]
pub struct Rpc {
    component: Component,
    target: String,
    guard: Cell<bool>,
}

impl Rpc {
    /// Binds RPC to `object` expected at namespace `target`.
    pub fn new(
        class: impl Into<String>,
        object: impl Into<String>,
        target: impl Into<String>,
    ) -> Self {
        Rpc {
            component: Component::object(class, object),
            target: target.into(),
            guard: Cell::new(false),
        }
    }

    /// Brackets binds with a stay lock.
    #[must_use]
    pub fn guarded(self) -> Self {
        self.guard.set(true);
        self
    }
}

impl MobilityAttribute for Rpc {
    fn name(&self) -> &str {
        "RPC"
    }

    fn model(&self) -> ModelKind {
        ModelKind::Rpc
    }

    fn component(&self) -> &Component {
        &self.component
    }

    fn plan(&self, _view: &BindView<'_>) -> Result<BindPlan, MageError> {
        Ok(BindPlan {
            target: Target::Node(self.target.clone()),
            mode: Mode::Stationary,
            guard: self.guard.get(),
        })
    }
}

/// Code on demand: bring the component *here* and execute locally
/// (Figure 1b). Applied to an object, moves the object; as a factory,
/// downloads the class and instantiates locally (§4.2).
#[derive(Debug)]
pub struct Cod {
    component: Component,
    placement: Placement,
}

impl Cod {
    /// COD over an existing object: move it to the invoking namespace.
    pub fn new(class: impl Into<String>, object: impl Into<String>) -> Self {
        Cod {
            component: Component::object(class, object),
            placement: Placement::object_move(),
        }
    }

    /// Traditional COD: download the class, instantiate locally on every
    /// bind.
    pub fn factory(class: impl Into<String>, object: impl Into<String>) -> Self {
        Cod {
            component: Component::object(class, object),
            placement: Placement::factory(),
        }
    }

    /// Single-use factory COD: instantiate locally once, then move that
    /// instance on later binds.
    pub fn single_use(class: impl Into<String>, object: impl Into<String>) -> Self {
        Cod {
            component: Component::object(class, object),
            placement: Placement::single_use(),
        }
    }
}

placement_builders!(Cod);

impl MobilityAttribute for Cod {
    fn name(&self) -> &str {
        "COD"
    }

    fn model(&self) -> ModelKind {
        ModelKind::Cod
    }

    fn component(&self) -> &Component {
        &self.component
    }

    fn plan(&self, view: &BindView<'_>) -> Result<BindPlan, MageError> {
        Ok(BindPlan {
            target: Target::Client,
            mode: self.placement.mode(view),
            guard: self.placement.guard.get(),
        })
    }
}

/// Remote evaluation: send the component to a remote target and execute
/// there (Figure 1c). Single-hop and synchronous (§3.5).
#[derive(Debug)]
pub struct Rev {
    component: Component,
    target: String,
    placement: Placement,
}

impl Rev {
    /// REV over an existing object: move it to `target`.
    pub fn new(
        class: impl Into<String>,
        object: impl Into<String>,
        target: impl Into<String>,
    ) -> Self {
        Rev {
            component: Component::object(class, object),
            target: target.into(),
            placement: Placement::object_move(),
        }
    }

    /// Traditional REV: ship the class, instantiate at the target on every
    /// bind — the paper's `new REV("GeoDataFilterImpl", "geoData",
    /// "sensor1")` (§3.6).
    pub fn factory(
        class: impl Into<String>,
        object: impl Into<String>,
        target: impl Into<String>,
    ) -> Self {
        Rev {
            component: Component::object(class, object),
            target: target.into(),
            placement: Placement::factory(),
        }
    }

    /// Single-use factory REV (§4.2's third definition).
    pub fn single_use(
        class: impl Into<String>,
        object: impl Into<String>,
        target: impl Into<String>,
    ) -> Self {
        Rev {
            component: Component::object(class, object),
            target: target.into(),
            placement: Placement::single_use(),
        }
    }
}

placement_builders!(Rev);

impl MobilityAttribute for Rev {
    fn name(&self) -> &str {
        "REV"
    }

    fn model(&self) -> ModelKind {
        ModelKind::Rev
    }

    fn component(&self) -> &Component {
        &self.component
    }

    fn plan(&self, view: &BindView<'_>) -> Result<BindPlan, MageError> {
        Ok(BindPlan {
            target: Target::Node(self.target.clone()),
            mode: self.placement.mode(view),
            guard: self.placement.guard.get(),
        })
    }
}

/// Generalized remote evaluation (§3.3, Figure 2): move the component to
/// the target "regardless of whether the component was initially local or
/// remote and whether the target is local or remote".
#[derive(Debug)]
pub struct Grev {
    component: Component,
    target: String,
    placement: Placement,
}

impl Grev {
    /// GREV over an existing object.
    pub fn new(
        class: impl Into<String>,
        object: impl Into<String>,
        target: impl Into<String>,
    ) -> Self {
        Grev {
            component: Component::object(class, object),
            target: target.into(),
            placement: Placement::object_move(),
        }
    }
}

placement_builders!(Grev);

impl MobilityAttribute for Grev {
    fn name(&self) -> &str {
        "GREV"
    }

    fn model(&self) -> ModelKind {
        ModelKind::Grev
    }

    fn component(&self) -> &Component {
        &self.component
    }

    fn plan(&self, view: &BindView<'_>) -> Result<BindPlan, MageError> {
        Ok(BindPlan {
            target: Target::Node(self.target.clone()),
            mode: self.placement.mode(view),
            guard: self.placement.guard.get(),
        })
    }
}

/// Mobile agent: move the object and invoke asynchronously — "multi-hop
/// and asynchronous" (§3.5); onward hops are requested by the object
/// itself via [`MobileEnv::request_hop`](crate::object::MobileEnv::request_hop).
#[derive(Debug)]
pub struct MobileAgent {
    component: Component,
    target: String,
    placement: Placement,
}

impl MobileAgent {
    /// Sends `object` to `target` — the paper's `new MAgent("geoData",
    /// "sensor2")` (§3.6).
    pub fn new(
        class: impl Into<String>,
        object: impl Into<String>,
        target: impl Into<String>,
    ) -> Self {
        MobileAgent {
            component: Component::object(class, object),
            target: target.into(),
            placement: Placement::object_move(),
        }
    }
}

placement_builders!(MobileAgent);

impl MobilityAttribute for MobileAgent {
    fn name(&self) -> &str {
        "MAgent"
    }

    fn model(&self) -> ModelKind {
        ModelKind::MobileAgent
    }

    fn component(&self) -> &Component {
        &self.component
    }

    fn plan(&self, view: &BindView<'_>) -> Result<BindPlan, MageError> {
        Ok(BindPlan {
            target: Target::Node(self.target.clone()),
            mode: self.placement.mode(view),
            guard: self.placement.guard.get(),
        })
    }

    fn one_way(&self) -> bool {
        true
    }
}

/// Current-location evaluation (§3.3, Figure 3): no computation target —
/// evaluate the component in whatever namespace it currently occupies.
#[derive(Debug)]
pub struct Cle {
    component: Component,
    guard: Cell<bool>,
}

impl Cle {
    /// Binds CLE to an existing object.
    pub fn new(class: impl Into<String>, object: impl Into<String>) -> Self {
        Cle {
            component: Component::object(class, object),
            guard: Cell::new(false),
        }
    }

    /// Brackets binds with a stay lock.
    #[must_use]
    pub fn guarded(self) -> Self {
        self.guard.set(true);
        self
    }
}

impl MobilityAttribute for Cle {
    fn name(&self) -> &str {
        "CLE"
    }

    fn model(&self) -> ModelKind {
        ModelKind::Cle
    }

    fn component(&self) -> &Component {
        &self.component
    }

    fn plan(&self, _view: &BindView<'_>) -> Result<BindPlan, MageError> {
        Ok(BindPlan {
            target: Target::Current,
            mode: Mode::Stationary,
            guard: self.guard.get(),
        })
    }
}

/// A user-defined mobility attribute wrapping an arbitrary policy closure
/// — the mechanism behind the paper's `CombinedMA` (§3.6) and the
/// load-threshold migration policy (§3.1).
///
/// # Examples
///
/// The paper's load-based policy: move the component off its host when the
/// host's load exceeds a threshold.
///
/// ```
/// use mage_core::attribute::{BindPlan, PolicyAttribute};
/// use mage_core::MageError;
///
/// let attr = PolicyAttribute::new(
///     "LoadBalancer",
///     "WorkerImpl",
///     "worker",
///     |view| {
///         // `None`: no worker to balance yet (or the find failed, which
///         // then fails the bind with the find's own error).
///         let Some(here) = view.location() else {
///             return Err(MageError::NotFound("worker".into()));
///         };
///         if view.load(here) > 0.8 {
///             let (coolest, _) = view
///                 .namespaces()
///                 .map(|(name, id)| (name.to_owned(), view.load(id)))
///                 .min_by(|a, b| a.1.total_cmp(&b.1))
///                 .expect("at least one namespace");
///             Ok(BindPlan::move_to(coolest))
///         } else {
///             Ok(BindPlan::stay())
///         }
///     },
/// );
/// # let _ = attr;
/// ```
/// Boxed policy closure deciding a [`BindPlan`] from a [`BindView`].
pub type PolicyFn = Box<dyn Fn(&BindView<'_>) -> Result<BindPlan, MageError>>;

/// A user-defined mobility attribute wrapping an arbitrary policy closure.
pub struct PolicyAttribute {
    name: String,
    component: Component,
    policy: PolicyFn,
    one_way: bool,
}

impl PolicyAttribute {
    /// Creates a custom attribute from a policy closure.
    pub fn new(
        name: impl Into<String>,
        class: impl Into<String>,
        object: impl Into<String>,
        policy: impl Fn(&BindView<'_>) -> Result<BindPlan, MageError> + 'static,
    ) -> Self {
        PolicyAttribute {
            name: name.into(),
            component: Component::object(class, object),
            policy: Box::new(policy),
            one_way: false,
        }
    }

    /// Makes invocations through this attribute fire-and-forget.
    #[must_use]
    pub fn one_way(mut self) -> Self {
        self.one_way = true;
        self
    }
}

impl std::fmt::Debug for PolicyAttribute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyAttribute")
            .field("name", &self.name)
            .field("component", &self.component)
            .finish_non_exhaustive()
    }
}

impl MobilityAttribute for PolicyAttribute {
    fn name(&self) -> &str {
        &self.name
    }

    fn model(&self) -> ModelKind {
        ModelKind::Custom
    }

    fn component(&self) -> &Component {
        &self.component
    }

    fn plan(&self, view: &BindView<'_>) -> Result<BindPlan, MageError> {
        (self.policy)(view)
    }

    fn one_way(&self) -> bool {
        self.one_way
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mage_sim::{NodeId, SimTime};
    use std::collections::BTreeMap;

    fn view<'a>(
        names: &'a BTreeMap<String, NodeId>,
        loads: &'a BTreeMap<NodeId, f64>,
        location: Option<NodeId>,
    ) -> BindView<'a> {
        BindView::new(NodeId::from_raw(0), location, names, loads, SimTime::ZERO)
    }

    fn simple_world() -> (BTreeMap<String, NodeId>, BTreeMap<NodeId, f64>) {
        let mut names = BTreeMap::new();
        names.insert("lab".to_owned(), NodeId::from_raw(0));
        names.insert("sensor1".to_owned(), NodeId::from_raw(1));
        (names, BTreeMap::new())
    }

    #[test]
    fn models_match_their_attributes() {
        assert_eq!(Lpc::new("C", "o").model(), ModelKind::Lpc);
        assert_eq!(Rpc::new("C", "o", "t").model(), ModelKind::Rpc);
        assert_eq!(Cod::new("C", "o").model(), ModelKind::Cod);
        assert_eq!(Rev::new("C", "o", "t").model(), ModelKind::Rev);
        assert_eq!(Grev::new("C", "o", "t").model(), ModelKind::Grev);
        assert_eq!(
            MobileAgent::new("C", "o", "t").model(),
            ModelKind::MobileAgent
        );
        assert_eq!(Cle::new("C", "o").model(), ModelKind::Cle);
    }

    #[test]
    fn mobile_agent_is_one_way_others_are_not() {
        assert!(MobileAgent::new("C", "o", "t").one_way());
        assert!(!Rev::new("C", "o", "t").one_way());
        assert!(!Cle::new("C", "o").one_way());
    }

    #[test]
    fn cod_targets_the_client() {
        let (names, loads) = simple_world();
        let v = view(&names, &loads, Some(NodeId::from_raw(1)));
        let plan = Cod::new("C", "o").plan(&v).unwrap();
        assert_eq!(plan.target, Target::Client);
        assert_eq!(plan.mode, Mode::Move);
    }

    #[test]
    fn rev_factory_produces_factory_mode() {
        let (names, loads) = simple_world();
        let v = view(&names, &loads, None);
        let plan = Rev::factory("C", "o", "sensor1").plan(&v).unwrap();
        assert!(matches!(plan.mode, Mode::Factory { .. }));
        assert_eq!(plan.target, Target::Node("sensor1".into()));
    }

    #[test]
    fn single_use_factory_switches_to_move() {
        let (names, loads) = simple_world();
        let attr = Rev::single_use("C", "o", "sensor1");
        let v = view(&names, &loads, None);
        assert!(matches!(attr.plan(&v).unwrap().mode, Mode::Factory { .. }));
        // Once instantiated and located, later binds move the instance.
        let v = view(&names, &loads, Some(NodeId::from_raw(1)));
        assert_eq!(attr.plan(&v).unwrap().mode, Mode::Move);
    }

    #[test]
    fn guard_builder_is_sticky() {
        let (names, loads) = simple_world();
        let attr = Rev::new("C", "o", "sensor1").guarded();
        let v = view(&names, &loads, Some(NodeId::from_raw(1)));
        assert!(attr.plan(&v).unwrap().guard);
    }

    #[test]
    fn cle_has_no_target() {
        let (names, loads) = simple_world();
        let v = view(&names, &loads, Some(NodeId::from_raw(1)));
        let plan = Cle::new("C", "o").plan(&v).unwrap();
        assert_eq!(plan.target, Target::Current);
        assert_eq!(plan.mode, Mode::Stationary);
    }

    #[test]
    fn policy_attribute_implements_load_threshold() {
        let mut names = BTreeMap::new();
        names.insert("hot".to_owned(), NodeId::from_raw(0));
        names.insert("cool".to_owned(), NodeId::from_raw(1));
        let mut loads = BTreeMap::new();
        loads.insert(NodeId::from_raw(0), 0.95);
        loads.insert(NodeId::from_raw(1), 0.10);
        let attr = PolicyAttribute::new("LoadBalancer", "C", "o", |view| {
            let here = view.location().unwrap();
            if view.load(here) > 0.8 {
                let (coolest, _) = view
                    .namespaces()
                    .map(|(n, id)| (n.to_owned(), view.load(id)))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .unwrap();
                Ok(BindPlan::move_to(coolest))
            } else {
                Ok(BindPlan::stay())
            }
        });
        let v = BindView::new(
            NodeId::from_raw(0),
            Some(NodeId::from_raw(0)),
            &names,
            &loads,
            SimTime::ZERO,
        );
        let plan = attr.plan(&v).unwrap();
        assert_eq!(plan.target, Target::Node("cool".into()));
        assert_eq!(attr.model(), ModelKind::Custom);
    }
}
