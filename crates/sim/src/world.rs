//! The world: a deterministic discrete-event scheduler over actors and the
//! network fabric.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::error::Error;
use std::fmt;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::actor::{Actor, Context, Effect, Label, OpId, TimerId};
use crate::idmap::{IdMap, IdSet};
use crate::metrics::Metrics;
use crate::network::{DropReason, Network};
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkSpec, NodeId};
use crate::trace::{TraceEvent, TraceLog, TraceMode};

/// Safety cap on events processed by a single blocking call, to turn
/// accidental protocol livelock into a reported error instead of a hang.
const DEFAULT_EVENT_BUDGET: u64 = 50_000_000;

/// Error produced by [`World::block_on`] and friends.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The event queue drained before the operation completed — the protocol
    /// stalled (e.g. a request was lost and nobody retried).
    Stalled,
    /// The event budget was exhausted; the protocol is probably livelocked.
    BudgetExhausted,
    /// The operation completed with an application-level failure.
    Op(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Stalled => write!(f, "simulation stalled before the operation completed"),
            SimError::BudgetExhausted => write!(f, "event budget exhausted (livelock?)"),
            SimError::Op(msg) => write!(f, "operation failed: {msg}"),
        }
    }
}

impl Error for SimError {}

#[derive(Debug)]
enum EventKind {
    Deliver {
        from: NodeId,
        to: NodeId,
        label: Label,
        payload: Bytes,
        msg_id: u64,
        /// Sender incarnation at send time; a mismatch at delivery means
        /// the sender crashed while the message was in flight.
        from_epoch: u64,
        /// Receiver incarnation at send time; a mismatch at delivery means
        /// the message was addressed to a previous incarnation.
        to_epoch: u64,
    },
    Timer {
        node: NodeId,
        id: TimerId,
        tag: u64,
        /// Incarnation that armed the timer; timers never fire into a
        /// later incarnation of the node.
        epoch: u64,
    },
}

/// An event's place in the queue: ordered by firing instant, then by
/// scheduling order (`seq` is unique, so `slot` never decides). The
/// event's body waits in [`EventQueue::slab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

enum Slot {
    Event(EventKind),
    /// Unused; links to the next free slot.
    Free(Option<u32>),
}

/// The pending events: a binary heap of 24-byte [`Key`]s over a slab of
/// event bodies. A sift moves only keys; a body is written once when
/// scheduled and moved out once when popped, and its slot is reused
/// through a free list threaded through the slab.
#[derive(Default)]
struct EventQueue {
    heap: BinaryHeap<Reverse<Key>>,
    slab: Vec<Slot>,
    /// Head of the free list.
    free: Option<u32>,
    /// Sequence number of the next scheduled event.
    seq: u64,
}

impl EventQueue {
    fn push(&mut self, at: SimTime, kind: EventKind) {
        let slot = match self.free {
            Some(slot) => {
                let Slot::Free(next) =
                    std::mem::replace(&mut self.slab[slot as usize], Slot::Event(kind))
                else {
                    unreachable!("the free list links free slots only")
                };
                self.free = next;
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("fewer than 2^32 queued events");
                self.slab.push(Slot::Event(kind));
                slot
            }
        };
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Key { at, seq, slot }));
    }

    /// Removes the earliest event, with the instant it is due.
    fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        let Reverse(key) = self.heap.pop()?;
        let freed = Slot::Free(self.free);
        let Slot::Event(kind) = std::mem::replace(&mut self.slab[key.slot as usize], freed) else {
            unreachable!("a queued key names an occupied slot")
        };
        self.free = Some(key.slot);
        Some((key.at, kind))
    }

    /// When the earliest event is due.
    fn next_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(key)| key.at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

struct NodeSlot {
    name: String,
    actor: Option<Box<dyn Actor>>,
    /// Rebuilds a fresh actor after a crash; nodes added without a factory
    /// cannot be restarted.
    factory: Option<Box<dyn Fn() -> Box<dyn Actor>>>,
    /// Whether the node is currently running (crash-stop: `false` between
    /// [`World::crash`] and [`World::restart`]).
    up: bool,
}

/// How far the op window may trail the newest op before its oldest held
/// op moves aside to [`OpTable::stragglers`].
const OP_WINDOW: usize = 1024;

enum OpSlot {
    Pending,
    Done(Result<Bytes, String>),
    /// Collected or forgotten: a completion arriving now is dropped.
    Vacant,
}

/// The driver's operations, indexed by their sequential [`OpId`]s.
///
/// Ops are begun in id order and mostly collected in that order, so the
/// table is a window over the ids from the oldest op still held: a lookup
/// is an index, not a hash. A collected or forgotten op vacates its slot,
/// and the window's front advances past vacant slots. An op still held
/// when the window reaches [`OP_WINDOW`] ops moves to a small side map,
/// so one op that never completes cannot make the window grow with every
/// later op.
struct OpTable {
    /// Id of `window[0]`.
    base: u64,
    /// `window[i]` is op `base + i`; the front is never vacant.
    window: VecDeque<OpSlot>,
    /// Held ops the window has passed.
    stragglers: IdMap<OpId, OpSlot>,
}

impl OpTable {
    fn new() -> Self {
        OpTable {
            base: 0,
            // Reserved up front: the window never holds more slots, so
            // its storage is never reallocated on the op path.
            window: VecDeque::with_capacity(OP_WINDOW),
            stragglers: IdMap::default(),
        }
    }

    fn begin(&mut self) -> OpId {
        if self.window.len() == OP_WINDOW {
            let oldest = self.window.pop_front().expect("the window is full");
            self.stragglers.insert(OpId(self.base), oldest);
            self.base += 1;
            self.trim();
        }
        self.window.push_back(OpSlot::Pending);
        OpId(self.base + self.window.len() as u64 - 1)
    }

    #[inline]
    fn slot(&self, op: OpId) -> Option<&OpSlot> {
        match op.0.checked_sub(self.base) {
            Some(i) => self.window.get(usize::try_from(i).ok()?),
            None => self.stragglers.get(&op),
        }
    }

    fn slot_mut(&mut self, op: OpId) -> Option<&mut OpSlot> {
        match op.0.checked_sub(self.base) {
            Some(i) => self.window.get_mut(usize::try_from(i).ok()?),
            None => self.stragglers.get_mut(&op),
        }
    }

    #[inline]
    fn result(&self, op: OpId) -> Option<&Result<Bytes, String>> {
        match self.slot(op) {
            Some(OpSlot::Done(result)) => Some(result),
            _ => None,
        }
    }

    /// Stores `op`'s result, unless the op was never begun, or was
    /// already collected or forgotten.
    fn complete(&mut self, op: OpId, result: Result<Bytes, String>) {
        if let Some(slot) = self.slot_mut(op) {
            if !matches!(slot, OpSlot::Vacant) {
                *slot = OpSlot::Done(result);
            }
        }
    }

    /// Removes `op`, returning its result if it had completed.
    fn take(&mut self, op: OpId) -> Option<Result<Bytes, String>> {
        let taken = if op.0 < self.base {
            self.stragglers.remove(&op)
        } else {
            self.slot_mut(op)
                .map(|slot| std::mem::replace(slot, OpSlot::Vacant))
        };
        self.trim();
        match taken {
            Some(OpSlot::Done(result)) => Some(result),
            _ => None,
        }
    }

    /// Advances the window's front past vacant slots.
    fn trim(&mut self) {
        while let Some(OpSlot::Vacant) = self.window.front() {
            self.window.pop_front();
            self.base += 1;
        }
    }

    /// Slots held, vacant ones inside the window included.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.window.len() + self.stragglers.len()
    }
}

/// A deterministic simulated distributed system: a set of named nodes (the
/// paper's *namespaces*), a network fabric, and a virtual clock.
///
/// Events fire in `(instant, scheduling order)`. The queue is a binary
/// heap of 24-byte keys over a slab of event bodies, so a sift moves keys
/// only and a freed body slot is reused by the next event. Driver
/// operations live in a table indexed by their sequential [`OpId`]s: a
/// window from the oldest op still held, with ops held long past it kept
/// aside, so the table's size follows the ops the driver still holds.
///
/// The world owns one effect buffer that every actor dispatch reuses, so
/// once warmed a dispatch allocates nothing beyond what the actor itself
/// allocates.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use mage_sim::{Actor, Context, NodeId, World};
///
/// struct Echo;
/// impl Actor for Echo {
///     fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
///         if !from.is_driver() {
///             ctx.send(from, "echo-rsp", payload);
///         }
///     }
/// }
///
/// let mut world = World::new(42);
/// let a = world.add_node("a", Echo);
/// let _b = world.add_node("b", Echo);
/// world.inject(a, "start", Bytes::new());
/// world.run_until_idle().unwrap();
/// ```
pub struct World {
    clock: SimTime,
    queue: EventQueue,
    nodes: Vec<NodeSlot>,
    /// Per-node incarnation numbers, parallel to `nodes` (a separate
    /// vector so actor dispatch can borrow it alongside the RNG).
    epochs: Vec<u64>,
    net: Network,
    rng: StdRng,
    trace: TraceLog,
    metrics: Metrics,
    /// Timers cancelled before firing. When one comes up it is dropped:
    /// it neither fires nor advances the clock.
    cancelled: IdSet<TimerId>,
    ops: OpTable,
    next_timer: u64,
    next_msg: u64,
    event_budget: u64,
    /// The effect buffer each dispatch borrows and the scheduler drains,
    /// keeping its capacity. Dispatch is not reentrant (see
    /// `with_actor`), so one suffices.
    effects: Vec<Effect>,
}

impl World {
    /// Creates an empty world with an ideal network and the given RNG seed.
    ///
    /// The same seed, node set and injected commands always replay the exact
    /// same event sequence.
    pub fn new(seed: u64) -> Self {
        World::with_network(seed, Network::default())
    }

    /// Creates an empty world over a pre-configured network fabric.
    pub fn with_network(seed: u64, net: Network) -> Self {
        World {
            clock: SimTime::ZERO,
            queue: EventQueue::default(),
            nodes: Vec::new(),
            epochs: Vec::new(),
            net,
            rng: StdRng::seed_from_u64(seed),
            trace: TraceLog::new(),
            metrics: Metrics::new(),
            cancelled: IdSet::default(),
            ops: OpTable::new(),
            next_timer: 0,
            next_msg: 0,
            event_budget: DEFAULT_EVENT_BUDGET,
            effects: Vec::new(),
        }
    }

    /// Adds a node running `actor` and returns its id.
    ///
    /// The actor's [`Actor::on_start`] runs immediately.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX - 1` nodes are added.
    pub fn add_node(&mut self, name: impl Into<String>, actor: impl Actor + 'static) -> NodeId {
        self.push_node(name.into(), Box::new(actor), None)
    }

    /// Adds a node whose actor is built by `factory`, so the node can be
    /// [`restart`](World::restart)ed after a [`crash`](World::crash) with
    /// a fresh actor (crash-stop: volatile state does not survive).
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX - 1` nodes are added.
    pub fn add_node_with(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn() -> Box<dyn Actor> + 'static,
    ) -> NodeId {
        let actor = factory();
        self.push_node(name.into(), actor, Some(Box::new(factory)))
    }

    fn push_node(
        &mut self,
        name: String,
        actor: Box<dyn Actor>,
        factory: Option<Box<dyn Fn() -> Box<dyn Actor>>>,
    ) -> NodeId {
        let idx = u32::try_from(self.nodes.len()).expect("node count fits u32");
        assert!(idx < u32::MAX - 1, "too many nodes");
        let id = NodeId::from_raw(idx);
        self.nodes.push(NodeSlot {
            name,
            actor: Some(actor),
            factory,
            up: true,
        });
        self.epochs.push(0);
        self.with_actor(id, |actor, ctx| actor.on_start(ctx));
        id
    }

    // ---- crash-stop fault injection ----

    /// Crashes `node`: its actor state is discarded, its pending timers
    /// will never fire, and every message to or from it still in flight is
    /// dropped ([`DropReason::NodeDown`]). Bumps the node's epoch so later
    /// incarnations are distinguishable. Returns `false` if the node was
    /// already down.
    pub fn crash(&mut self, node: NodeId) -> bool {
        let idx = node.index();
        let slot = &mut self.nodes[idx];
        if !slot.up {
            return false;
        }
        slot.up = false;
        slot.actor = None;
        self.epochs[idx] += 1;
        if self.trace.is_enabled() {
            self.trace.push(TraceEvent::Note {
                at: self.clock,
                node,
                text: format!("crashed (epoch {})", self.epochs[idx]),
            });
        }
        true
    }

    /// Restarts a crashed `node` with a fresh actor from its factory (its
    /// [`Actor::on_start`] runs again). The node keeps its id and the
    /// epoch bumped at crash time, so stale in-flight traffic addressed to
    /// the previous incarnation is still dropped. Returns `false` if the
    /// node was not down.
    ///
    /// # Panics
    ///
    /// Panics if the node was added without a factory (see
    /// [`World::add_node_with`]).
    pub fn restart(&mut self, node: NodeId) -> bool {
        let idx = node.index();
        let slot = &mut self.nodes[idx];
        if slot.up {
            return false;
        }
        let factory = slot
            .factory
            .as_ref()
            .unwrap_or_else(|| panic!("{node} has no actor factory; use add_node_with"));
        slot.actor = Some(factory());
        slot.up = true;
        if self.trace.is_enabled() {
            self.trace.push(TraceEvent::Note {
                at: self.clock,
                node,
                text: format!("restarted (epoch {})", self.epochs[idx]),
            });
        }
        self.with_actor(node, |actor, ctx| actor.on_start(ctx));
        true
    }

    /// Whether `node` is currently running.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.nodes[node.index()].up
    }

    /// The current incarnation number of `node` (bumped on every crash).
    pub fn node_epoch(&self, node: NodeId) -> u64 {
        self.epochs[node.index()]
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Number of nodes in the world.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Display names of all nodes, indexed by node id.
    pub fn node_names(&self) -> Vec<String> {
        self.nodes.iter().map(|slot| slot.name.clone()).collect()
    }

    /// Looks up a node id by its display name.
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|slot| slot.name == name)
            .map(|i| NodeId::from_raw(i as u32))
    }

    /// Mutable access to the network fabric (links, partitions).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Shared access to the network fabric.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The trace log (enable it to record protocol figures).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Mutable access to the trace log.
    pub fn trace_mut(&mut self) -> &mut TraceLog {
        &mut self.trace
    }

    /// Sets the trace mode. [`TraceMode::Off`] (the default) makes message
    /// recording — and the rich labels actors build for it — cost nothing
    /// on the steady-state path; [`TraceMode::Full`] records every event.
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        match mode {
            TraceMode::Off => self.trace.disable(),
            TraceMode::Full => self.trace.enable(),
        }
    }

    /// The current trace mode.
    pub fn trace_mode(&self) -> TraceMode {
        if self.trace.is_enabled() {
            TraceMode::Full
        } else {
            TraceMode::Off
        }
    }

    /// Experiment metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Resets accumulated metrics (the clock and trace are unaffected).
    pub fn reset_metrics(&mut self) {
        self.metrics.reset();
    }

    /// Bumps a named metric counter from the driver side (actors use
    /// [`Context::count`]; client-library code that sits outside the world
    /// — e.g. an explicit stub rebind — records through this).
    pub fn bump_metric(&mut self, name: &'static str) {
        self.metrics.bump(name);
    }

    /// Replaces the per-call event budget used by the blocking runners.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Registers a new driver operation in the pending state.
    pub fn begin_op(&mut self) -> OpId {
        self.ops.begin()
    }

    /// The result of `op` if it has completed.
    #[inline]
    pub fn op_result(&self, op: OpId) -> Option<&Result<Bytes, String>> {
        self.ops.result(op)
    }

    /// Abandons an operation the driver no longer cares about: any stored
    /// result is dropped now, and an in-flight completion is dropped when
    /// it arrives instead of being retained forever.
    pub fn forget_op(&mut self, op: OpId) {
        self.ops.take(op);
    }

    /// Injects a driver payload for delivery to `to` at the current instant.
    ///
    /// The receiving actor observes `from == NodeId::DRIVER`.
    pub fn inject(&mut self, to: NodeId, label: impl Into<Label>, payload: Bytes) {
        let msg_id = self.next_msg;
        self.next_msg += 1;
        let label = label.into();
        if self.trace.is_enabled() {
            self.trace.push(TraceEvent::Send {
                at: self.clock,
                from: NodeId::DRIVER,
                to,
                label: label.as_str().to_owned(),
                bytes: payload.len() as u64,
                msg_id,
            });
        }
        let to_epoch = self.epochs.get(to.index()).copied().unwrap_or(0);
        self.queue.push(
            self.clock,
            EventKind::Deliver {
                from: NodeId::DRIVER,
                to,
                label,
                payload,
                msg_id,
                from_epoch: 0,
                to_epoch,
            },
        );
    }

    /// Processes the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, event)) = self.queue.pop() else {
            return false;
        };
        // A cancelled timer is dropped before it can move the clock.
        if let EventKind::Timer { id, .. } = &event {
            if self.cancelled.remove(id) {
                return true;
            }
        }
        debug_assert!(at >= self.clock, "time must not run backwards");
        self.clock = at;
        match event {
            EventKind::Deliver {
                from,
                to,
                label,
                payload,
                msg_id,
                from_epoch,
                to_epoch,
            } => {
                // Crash-stop: a message is lost if either endpoint crashed
                // (or restarted into a new incarnation) while it was in
                // flight, or if the receiver is currently down.
                let sender_ok = from.is_driver()
                    || self
                        .nodes
                        .get(from.index())
                        .is_some_and(|slot| slot.up && self.epochs[from.index()] == from_epoch);
                let receiver_ok = self
                    .nodes
                    .get(to.index())
                    .is_some_and(|slot| slot.up && self.epochs[to.index()] == to_epoch);
                if !sender_ok || !receiver_ok {
                    self.metrics.record_drop();
                    if self.trace.is_enabled() {
                        self.trace.push(TraceEvent::Drop {
                            at: self.clock,
                            from,
                            to,
                            label: label.into_string(),
                            reason: DropReason::NodeDown,
                            msg_id,
                        });
                    }
                    return true;
                }
                self.metrics.record_delivery();
                if self.trace.is_enabled() {
                    self.trace.push(TraceEvent::Deliver {
                        at: self.clock,
                        from,
                        to,
                        label: label.into_string(),
                        msg_id,
                    });
                }
                self.with_actor(to, |actor, ctx| actor.on_message(ctx, from, payload));
            }
            EventKind::Timer {
                node, tag, epoch, ..
            } => {
                // Timers armed by a previous incarnation die with it.
                if !self.nodes[node.index()].up || self.epochs[node.index()] != epoch {
                    return true;
                }
                if self.trace.is_enabled() {
                    self.trace.push(TraceEvent::Timer {
                        at: self.clock,
                        node,
                        tag,
                    });
                }
                self.with_actor(node, |actor, ctx| actor.on_timer(ctx, tag));
            }
        }
        true
    }

    /// Runs until no events remain.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BudgetExhausted`] if the event budget is used up
    /// before the queue drains.
    pub fn run_until_idle(&mut self) -> Result<(), SimError> {
        let mut budget = self.event_budget;
        while self.step() {
            budget -= 1;
            if budget == 0 {
                return Err(SimError::BudgetExhausted);
            }
        }
        Ok(())
    }

    /// Runs until virtual time reaches `deadline` or the queue drains.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BudgetExhausted`] if the event budget is used up
    /// first.
    pub fn run_until(&mut self, deadline: SimTime) -> Result<(), SimError> {
        let mut budget = self.event_budget;
        while let Some(at) = self.queue.next_at() {
            if at > deadline {
                break;
            }
            self.step();
            budget -= 1;
            if budget == 0 {
                return Err(SimError::BudgetExhausted);
            }
        }
        if self.clock < deadline {
            self.clock = deadline;
        }
        Ok(())
    }

    /// Runs until `op` completes and returns its payload.
    ///
    /// # Errors
    ///
    /// * [`SimError::Stalled`] — the queue drained first.
    /// * [`SimError::BudgetExhausted`] — the event budget ran out.
    /// * [`SimError::Op`] — the operation completed with a failure.
    pub fn block_on(&mut self, op: OpId) -> Result<Bytes, SimError> {
        let mut budget = self.event_budget;
        loop {
            if self.ops.result(op).is_some() {
                let result = self.ops.take(op).expect("checked above");
                return result.map_err(SimError::Op);
            }
            if !self.step() {
                return Err(SimError::Stalled);
            }
            budget -= 1;
            if budget == 0 {
                return Err(SimError::BudgetExhausted);
            }
        }
    }

    fn with_actor(&mut self, node: NodeId, run: impl FnOnce(&mut dyn Actor, &mut Context<'_>)) {
        let idx = node.index();
        if !self.nodes[idx].up {
            return; // crashed nodes process nothing
        }
        let mut actor = self.nodes[idx]
            .actor
            .take()
            .unwrap_or_else(|| panic!("actor for {node} is re-entered"));
        let trace_on = self.trace.is_enabled();
        let mut ctx = Context::new(
            node,
            self.clock,
            &mut self.rng,
            &mut self.next_timer,
            trace_on,
            &self.epochs,
            &mut self.effects,
        );
        run(actor.as_mut(), &mut ctx);
        self.nodes[idx].actor = Some(actor);
        let mut effects = std::mem::take(&mut self.effects);
        self.apply_effects(node, effects.drain(..));
        self.effects = effects;
    }

    fn apply_effects(&mut self, node: NodeId, effects: impl Iterator<Item = Effect>) {
        for effect in effects {
            match effect {
                Effect::Send {
                    to,
                    label,
                    payload,
                    local_delay,
                } => {
                    let depart = self.clock + local_delay;
                    let msg_id = self.next_msg;
                    self.next_msg += 1;
                    let bytes = payload.len() as u64;
                    self.metrics.record_send(label.as_str(), bytes);
                    if self.trace.is_enabled() {
                        self.trace.push(TraceEvent::Send {
                            at: depart,
                            from: node,
                            to,
                            label: label.as_str().to_owned(),
                            bytes,
                            msg_id,
                        });
                    }
                    match self.net.delivery_delay(node, to, bytes, &mut self.rng) {
                        Ok(net_delay) => {
                            let from_epoch = self.epochs[node.index()];
                            let to_epoch = self.epochs.get(to.index()).copied().unwrap_or(0);
                            self.queue.push(
                                depart + net_delay,
                                EventKind::Deliver {
                                    from: node,
                                    to,
                                    label,
                                    payload,
                                    msg_id,
                                    from_epoch,
                                    to_epoch,
                                },
                            );
                        }
                        Err(reason) => {
                            self.metrics.record_drop();
                            if self.trace.is_enabled() {
                                self.trace.push(TraceEvent::Drop {
                                    at: depart,
                                    from: node,
                                    to,
                                    label: label.into_string(),
                                    reason,
                                    msg_id,
                                });
                            }
                        }
                    }
                }
                Effect::SetTimer { id, after, tag } => {
                    let epoch = self.epochs[node.index()];
                    self.queue.push(
                        self.clock + after,
                        EventKind::Timer {
                            node,
                            id,
                            tag,
                            epoch,
                        },
                    );
                }
                Effect::CancelTimer(id) => {
                    self.cancelled.insert(id);
                }
                Effect::CompleteOp { op, result } => self.ops.complete(op, result),
                Effect::Note(text) => {
                    self.trace.push(TraceEvent::Note {
                        at: self.clock,
                        node,
                        text,
                    });
                }
                Effect::Count(name) => {
                    self.metrics.bump(name);
                }
            }
        }
    }
}

impl fmt::Debug for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("now", &self.clock)
            .field("nodes", &self.nodes.len())
            .field("queued_events", &self.queue.len())
            .finish_non_exhaustive()
    }
}

/// Convenience: add a link spec between two named nodes.
impl World {
    /// Sets the link between two nodes in both directions.
    pub fn set_link_bidi(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        self.net.set_link_bidi(a, b, spec);
    }

    /// Partitions two nodes (both directions).
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        self.net.partition(a, b);
    }

    /// Heals a partition (both directions).
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        self.net.heal(a, b);
    }

    /// Advances virtual time by `d`, processing any events that fall due.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BudgetExhausted`] if the event budget runs out.
    pub fn advance(&mut self, d: SimDuration) -> Result<(), SimError> {
        let deadline = self.clock + d;
        self.run_until(deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replies to `ping` with `pong`; completes op embedded in driver cmd.
    struct Ponger;

    impl Actor for Ponger {
        fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
            if from.is_driver() {
                // payload = op id (8 LE bytes) followed by target node.
                let op = OpId::from_raw(u64::from_le_bytes(payload[..8].try_into().unwrap()));
                let target =
                    NodeId::from_raw(u32::from_le_bytes(payload[8..12].try_into().unwrap()));
                let mut fwd = Vec::from(&payload[..8]);
                fwd.push(b'!');
                ctx.send(target, "ping", Bytes::from(fwd));
                // Remember op by stashing it in the payload we sent; the
                // pong comes back with the same 8 bytes.
                let _ = op;
            } else if payload.last() == Some(&b'!') {
                let mut rsp = Vec::from(&payload[..8]);
                rsp.push(b'?');
                ctx.send(from, "pong", Bytes::from(rsp));
            } else {
                let op = OpId::from_raw(u64::from_le_bytes(payload[..8].try_into().unwrap()));
                ctx.complete(op, Bytes::from_static(b"done"));
            }
        }
    }

    fn driver_payload(op: OpId, target: NodeId) -> Bytes {
        let mut v = op.as_raw().to_le_bytes().to_vec();
        v.extend_from_slice(&target.as_raw().to_le_bytes());
        Bytes::from(v)
    }

    #[test]
    fn ping_pong_completes_op() {
        let mut world = World::new(1);
        let a = world.add_node("a", Ponger);
        let b = world.add_node("b", Ponger);
        let op = world.begin_op();
        world.inject(a, "cmd", driver_payload(op, b));
        let out = world.block_on(op).unwrap();
        assert_eq!(&out[..], b"done");
    }

    #[test]
    fn latency_advances_virtual_time() {
        let mut world = World::new(1);
        let a = world.add_node("a", Ponger);
        let b = world.add_node("b", Ponger);
        world.set_link_bidi(
            a,
            b,
            LinkSpec::ideal().with_latency(SimDuration::from_millis(10)),
        );
        let op = world.begin_op();
        world.inject(a, "cmd", driver_payload(op, b));
        world.block_on(op).unwrap();
        // One round trip = 20 ms.
        assert_eq!(world.now(), SimTime::from_micros(20_000));
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed: u64| -> (SimTime, u64) {
            let mut world = World::new(seed);
            let a = world.add_node("a", Ponger);
            let b = world.add_node("b", Ponger);
            world.set_link_bidi(
                a,
                b,
                LinkSpec::ideal()
                    .with_latency(SimDuration::from_millis(1))
                    .with_jitter(SimDuration::from_micros(500)),
            );
            let op = world.begin_op();
            world.inject(a, "cmd", driver_payload(op, b));
            world.block_on(op).unwrap();
            (world.now(), world.metrics().net.sent)
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn partition_stalls_operation() {
        let mut world = World::new(1);
        let a = world.add_node("a", Ponger);
        let b = world.add_node("b", Ponger);
        world.partition(a, b);
        let op = world.begin_op();
        world.inject(a, "cmd", driver_payload(op, b));
        assert_eq!(world.block_on(op), Err(SimError::Stalled));
        assert_eq!(world.metrics().net.dropped, 1);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut world = World::new(1);
        let a = world.add_node("a", Ponger);
        let b = world.add_node("b", Ponger);
        world.set_link_bidi(
            a,
            b,
            LinkSpec::ideal().with_latency(SimDuration::from_millis(10)),
        );
        let op = world.begin_op();
        world.inject(a, "cmd", driver_payload(op, b));
        world.run_until(SimTime::from_micros(5_000)).unwrap();
        // Ping still in flight; op unresolved and clock exactly at deadline.
        assert!(world.op_result(op).is_none());
        assert_eq!(world.now(), SimTime::from_micros(5_000));
        world.run_until_idle().unwrap();
        assert!(world.op_result(op).is_some());
    }

    #[test]
    fn node_lookup_by_name() {
        let mut world = World::new(1);
        let a = world.add_node("alpha", Ponger);
        assert_eq!(world.node_id("alpha"), Some(a));
        assert_eq!(world.node_id("missing"), None);
        assert_eq!(world.node_names(), vec!["alpha".to_owned()]);
    }

    #[test]
    fn advance_moves_clock_when_idle() {
        let mut world = World::new(1);
        world.advance(SimDuration::from_millis(5)).unwrap();
        assert_eq!(world.now(), SimTime::from_micros(5_000));
    }

    struct TimerActor {
        fired: Vec<u64>,
    }

    impl Actor for TimerActor {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(1), 1);
            let t2 = ctx.set_timer(SimDuration::from_millis(2), 2);
            ctx.cancel_timer(t2);
            ctx.set_timer(SimDuration::from_millis(3), 3);
        }

        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _payload: Bytes) {}

        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
            self.fired.push(tag);
            ctx.note(format!("timer {tag}"));
        }
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        let mut world = World::new(1);
        world.trace_mut().enable();
        world.add_node("t", TimerActor { fired: vec![] });
        world.run_until_idle().unwrap();
        let notes: Vec<_> = world
            .trace()
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Note { text, .. } => Some(text.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(notes, vec!["timer 1".to_owned(), "timer 3".to_owned()]);
    }

    #[test]
    fn cancelled_timers_do_not_advance_the_clock() {
        struct Canceller;
        impl Actor for Canceller {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_millis(1), 1);
                let late = ctx.set_timer(SimDuration::from_millis(5), 2);
                ctx.cancel_timer(late);
            }

            fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _payload: Bytes) {}
        }
        let mut world = World::new(1);
        world.add_node("c", Canceller);
        world.run_until_idle().unwrap();
        assert_eq!(world.now(), SimTime::from_micros(1_000));
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        struct Looper;
        impl Actor for Looper {
            fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: Bytes) {
                let me = ctx.node();
                ctx.send(me, "loop", payload);
            }
        }
        let mut world = World::new(1);
        let a = world.add_node("a", Looper);
        world.set_event_budget(100);
        world.inject(a, "loop", Bytes::new());
        assert_eq!(world.run_until_idle(), Err(SimError::BudgetExhausted));
    }

    #[test]
    fn sim_error_display() {
        assert!(SimError::Stalled.to_string().contains("stalled"));
        assert!(SimError::Op("x".into()).to_string().contains('x'));
    }

    #[test]
    fn crash_drops_in_flight_messages_to_dead_node() {
        let mut world = World::new(1);
        let a = world.add_node("a", Ponger);
        let b = world.add_node_with("b", || Box::new(Ponger));
        world.set_link_bidi(
            a,
            b,
            LinkSpec::ideal().with_latency(SimDuration::from_millis(10)),
        );
        let op = world.begin_op();
        world.inject(a, "cmd", driver_payload(op, b));
        // Ping departs immediately; crash b while it is on the wire.
        world.crash(b);
        assert_eq!(world.block_on(op), Err(SimError::Stalled));
        assert_eq!(world.metrics().net.dropped, 1);
    }

    #[test]
    fn crash_drops_in_flight_messages_from_dead_node() {
        let mut world = World::new(1);
        let a = world.add_node_with("a", || Box::new(Ponger));
        let b = world.add_node("b", Ponger);
        world.set_link_bidi(
            a,
            b,
            LinkSpec::ideal().with_latency(SimDuration::from_millis(10)),
        );
        let op = world.begin_op();
        world.inject(a, "cmd", driver_payload(op, b));
        // Let the ping depart, then crash the sender: crash-stop also
        // invalidates its in-flight output.
        world.crash(a);
        assert_eq!(world.block_on(op), Err(SimError::Stalled));
        assert!(world.metrics().net.dropped >= 1);
    }

    struct CountingActor {
        seen: u64,
    }

    impl Actor for CountingActor {
        fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
            if !from.is_driver() {
                return;
            }
            self.seen += 1;
            let op = OpId::from_raw(u64::from_le_bytes(payload[..8].try_into().unwrap()));
            ctx.complete(op, Bytes::from(self.seen.to_le_bytes().to_vec()));
        }
    }

    #[test]
    fn restart_resets_actor_state_and_bumps_epoch() {
        let mut world = World::new(1);
        let a = world.add_node_with("a", || Box::new(CountingActor { seen: 0 }));
        let ask = |world: &mut World| -> u64 {
            let op = world.begin_op();
            world.inject(a, "ask", Bytes::from(op.as_raw().to_le_bytes().to_vec()));
            let out = world.block_on(op).unwrap();
            u64::from_le_bytes(out[..].try_into().unwrap())
        };
        assert_eq!(ask(&mut world), 1);
        assert_eq!(ask(&mut world), 2);
        assert_eq!(world.node_epoch(a), 0);
        assert!(world.crash(a));
        assert!(!world.crash(a), "second crash is a no-op");
        assert!(!world.is_up(a));
        assert_eq!(world.node_epoch(a), 1);
        assert!(world.restart(a));
        assert!(!world.restart(a), "restart of an up node is a no-op");
        assert!(world.is_up(a));
        // Fresh actor: the counter restarted from zero.
        assert_eq!(ask(&mut world), 1);
    }

    #[test]
    fn driver_injection_to_down_node_is_dropped() {
        let mut world = World::new(1);
        let a = world.add_node_with("a", || Box::new(CountingActor { seen: 0 }));
        world.crash(a);
        let op = world.begin_op();
        world.inject(a, "ask", Bytes::from(op.as_raw().to_le_bytes().to_vec()));
        assert_eq!(world.block_on(op), Err(SimError::Stalled));
        assert_eq!(world.metrics().net.dropped, 1);
    }

    fn ask(world: &mut World, node: NodeId, op: OpId) {
        world.inject(node, "ask", Bytes::from(op.as_raw().to_le_bytes().to_vec()));
    }

    #[test]
    fn op_table_holds_only_live_ops() {
        let mut world = World::new(1);
        let a = world.add_node("a", CountingActor { seen: 0 });
        // Held and never completed: the window must move past it.
        let held = world.begin_op();
        for _ in 0..100_000 {
            let op = world.begin_op();
            ask(&mut world, a, op);
            world.block_on(op).unwrap();
        }
        assert_eq!(world.ops.len(), 1, "only the held op remains");
        assert!(world.op_result(held).is_none());

        // A forgotten op's late completion is dropped.
        let forgotten = world.begin_op();
        world.forget_op(forgotten);
        ask(&mut world, a, forgotten);
        world.run_until_idle().unwrap();
        assert!(world.op_result(forgotten).is_none());
        assert_eq!(world.ops.len(), 1);

        // So is a completion for an op id never begun.
        ask(&mut world, a, OpId::from_raw(1 << 40));
        world.run_until_idle().unwrap();
        assert!(world.op_result(OpId::from_raw(1 << 40)).is_none());
        assert_eq!(world.ops.len(), 1);

        // The held op still completes and collects through the side map.
        ask(&mut world, a, held);
        assert!(world.block_on(held).is_ok());
        assert_eq!(world.ops.len(), 0);
    }

    #[test]
    fn held_ops_outside_the_window_stay_addressable() {
        let mut world = World::new(1);
        let a = world.add_node("a", CountingActor { seen: 0 });
        let ops: Vec<OpId> = (0..3 * OP_WINDOW).map(|_| world.begin_op()).collect();
        assert!(world.ops.window.len() <= OP_WINDOW);
        // Complete them newest first; each result lands where its op lives.
        for &op in ops.iter().rev() {
            ask(&mut world, a, op);
        }
        world.run_until_idle().unwrap();
        assert!(ops.iter().all(|&op| world.op_result(op).is_some()));
        for op in ops {
            world.block_on(op).unwrap();
        }
        assert_eq!(world.ops.len(), 0);
    }

    /// Fires `total` zero-delay timers: each firing schedules the next two
    /// tags at the same instant, so pushes and pops interleave and every
    /// push after the first pops reuses a freed slab slot.
    struct Fanout {
        next: u64,
        total: u64,
    }

    impl Actor for Fanout {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.on_timer(ctx, u64::MAX);
        }

        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _payload: Bytes) {}

        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
            if tag != u64::MAX {
                ctx.note(format!("{tag}"));
            }
            for _ in 0..2 {
                if self.next < self.total {
                    ctx.set_timer(SimDuration::ZERO, self.next);
                    self.next += 1;
                }
            }
        }
    }

    #[test]
    fn same_instant_events_fire_in_scheduling_order() {
        let mut world = World::new(1);
        world.trace_mut().enable();
        world.add_node(
            "f",
            Fanout {
                next: 0,
                total: 200,
            },
        );
        world.run_until_idle().unwrap();
        let fired: Vec<u64> = world
            .trace()
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Note { text, .. } => text.parse().ok(),
                _ => None,
            })
            .collect();
        assert_eq!(fired, (0..200).collect::<Vec<_>>());
        assert!(world.queue.slab.len() < 200, "slots are recycled");
    }

    #[test]
    fn event_queue_pops_in_instant_then_scheduling_order() {
        // Interleave pushes at a few instants (many ties) with pops, and
        // check every pop against a model sorted by (instant, sequence).
        let mut queue = EventQueue::default();
        let mut model: Vec<(SimTime, u64)> = Vec::new();
        let mut lcg: u64 = 7;
        let mut next = |m: u64| {
            lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (lcg >> 33) % m
        };
        let timer = |tag| EventKind::Timer {
            node: NodeId::from_raw(0),
            id: TimerId(0),
            tag,
            epoch: 0,
        };
        let mut clock = 0;
        for seq in 0..5_000 {
            let at = SimTime::from_micros(clock + next(3));
            queue.push(at, timer(seq));
            model.push((at, seq));
            if next(2) == 0 {
                model.sort();
                let (at, seq) = model.remove(0);
                let (got_at, got) = queue.pop().unwrap();
                let EventKind::Timer { tag, .. } = got else {
                    unreachable!()
                };
                assert_eq!((got_at, tag), (at, seq));
                clock = at.as_micros();
            }
        }
        model.sort();
        for (at, seq) in model {
            let (got_at, got) = queue.pop().unwrap();
            let EventKind::Timer { tag, .. } = got else {
                unreachable!()
            };
            assert_eq!((got_at, tag), (at, seq));
        }
        assert!(queue.pop().is_none());
    }

    struct OldTimer;

    impl Actor for OldTimer {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(5), 42);
        }

        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _payload: Bytes) {}

        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
            ctx.note(format!("fired {tag}"));
        }
    }

    #[test]
    fn timers_from_previous_incarnation_do_not_fire() {
        let mut world = World::new(1);
        world.trace_mut().enable();
        let a = world.add_node_with("t", || Box::new(OldTimer));
        // Crash + restart before the epoch-0 timer is due: only the fresh
        // incarnation's on_start timer (set at restart time) may fire.
        world.crash(a);
        world.restart(a);
        world.run_until_idle().unwrap();
        let fired: Vec<_> = world
            .trace()
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Timer { .. }))
            .collect();
        assert_eq!(fired.len(), 1, "only the new incarnation's timer fires");
    }

    #[test]
    fn crashes_replay_deterministically() {
        let run = |seed: u64| -> (SimTime, u64, u64) {
            let mut world = World::new(seed);
            let a = world.add_node_with("a", || Box::new(Ponger));
            let b = world.add_node_with("b", || Box::new(Ponger));
            world.set_link_bidi(
                a,
                b,
                LinkSpec::ideal()
                    .with_latency(SimDuration::from_millis(1))
                    .with_jitter(SimDuration::from_micros(500)),
            );
            let op = world.begin_op();
            world.inject(a, "cmd", driver_payload(op, b));
            world.crash(b);
            let _ = world.block_on(op);
            world.restart(b);
            let op = world.begin_op();
            world.inject(a, "cmd", driver_payload(op, b));
            world.block_on(op).unwrap();
            (
                world.now(),
                world.metrics().net.sent,
                world.metrics().net.dropped,
            )
        };
        assert_eq!(run(7), run(7));
    }
}
