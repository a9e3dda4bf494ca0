//! The RMI endpoint: one per namespace, acting as both client and server.
//!
//! Responsibilities mirrored from Java RMI:
//!
//! * a per-node name registry of [`RemoteObject`]s (skeleton dispatch)
//! * outgoing calls with correlation ids, retransmission on loss and
//!   exact at-most-once execution through per-caller call windows
//! * connection priming: a client's first call to a given server pays a
//!   one-time [`CostModel::connect`] charge (the paper's "warming the
//!   caches" single-invocation overhead)
//! * CPU cost accounting for marshalling and dispatch, charged as node-local
//!   compute delay before messages reach the wire
//!
//! Once warmed, a round trip's endpoint bookkeeping allocates nothing:
//! object/method names travel as interned [`NameId`]s (the backing string
//! rides along until the peer acknowledges it — see [`crate::symbols`]),
//! encoding goes through a reusable per-endpoint scratch buffer, the
//! pending queue, deadline queue and call windows reuse their storage,
//! answers are held as ready-to-resend frames, and retransmissions
//! clone the original frame instead of re-encoding. What remains is the
//! data: the request and response frames, and whatever the caller and the
//! called object allocate. Heap allocations per warmed op, as printed by
//! the attribution test in `crates/core/tests/alloc_budget.rs`:
//!
//! | operation | allocs/op | frames | the rest |
//! |---|---|---|---|
//! | raw round trip ([`drive_call`](crate::drive_call), unit args) | 5 | 2 | the caller's marshalled args; the driver command and its `Bytes` |
//! | MAGE `Session::call` | 5 | 2 | the marshalled args; the object's result; the op-id key |
//! | MAGE REV `bind_invoke` | 20 | 8 | the args, op-id key and plan; the find's visited list; the moved state, decoded and reinstantiated; service replies and object results |
//!
//! **One retransmission timer per endpoint**, as TCP keeps one per
//! connection (RFC 6298 §5). The endpoint keeps the retransmission
//! deadlines of its unanswered calls in one queue ordered by deadline; a
//! response removes its call's entry, and a single simulator timer is
//! armed at or before the earliest deadline. When it fires, each due call
//! is retransmitted, with its next deadline [`Config::call_timeout`] after
//! the firing instant, or failed with [`RmiError::PeerUnreachable`] once
//! [`Config::max_retries`] retransmissions went unanswered; then the
//! timer re-arms at the earliest remaining deadline. The last answer
//! cancels it, so an answered call leaves nothing in the world's event
//! queue.
//!
//! **At-most-once in O(in-flight): one call window per caller
//! incarnation** (Birrell & Nelson, *Implementing Remote Procedure Calls*,
//! 1984). Every request carries its caller's oldest unanswered call id,
//! the window's floor; above it the server keeps each executed call as
//! `Deferred` (the app works on it) or `Answered` (its frame, re-sent to a
//! duplicate). A request below the floor is dropped unexecuted: its
//! caller has the answer or gave up. Raising the floor frees the answers
//! below it, so a window holds what its caller has in flight, however
//! many calls others make meanwhile.
//!
//! **Failure detection is purely message-driven.** Every frame carries its
//! sender's incarnation epoch (a boot counter); an endpoint learns that a
//! peer restarted the moment the first frame from the fresh incarnation
//! arrives, and only then — no out-of-band oracle. Responses additionally
//! echo the epoch the request claimed, so a reply addressed to a dead
//! incarnation of the caller is discarded on receipt instead of colliding
//! with the fresh incarnation's call-id space. A request naming an
//! interned id the receiver never learned (its table died with a crash,
//! or the first-use carrier frame was lost) is answered with a
//! [`Fault::UnknownName`] NACK, and the caller re-sends the request with
//! the backing strings attached. The simulator's epoch oracle
//! (`Context::node_epoch`) survives only inside `debug_assert!`s that the
//! wire-learned view agrees with ground truth.
//!
//! Higher layers (the MAGE runtime) plug in as an [`App`]: a protocol state
//! machine that can originate calls, answer calls not handled by the local
//! object registry, and defer replies while it performs nested calls.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use bytes::Bytes;
use mage_sim::{Actor, Context, IdMap, Label, NodeId, OpId, SimDuration, SimTime, TimerId};
use rand::rngs::StdRng;

use crate::cost::CostModel;
use crate::error::{Fault, RmiError};
use crate::object::{ObjectEnv, RemoteObject};
use crate::symbols::{IntoName, NameId, SymbolTable};
use crate::wire::{call_label, encode_call_req, encode_call_rsp, WireMsg};

/// Tag of the endpoint's retransmission timer. App timer tags must leave
/// this bit clear.
const RETX_TAG: u64 = 1 << 63;

/// Endpoint configuration.
///
/// Duplicate suppression needs no setting: a server holds each caller's
/// answers only until the caller's next request shows it received them
/// (see the module docs on call windows).
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// CPU cost model for marshalling/dispatch/connection setup.
    pub cost: CostModel,
    /// Time to wait for a response before retransmitting.
    pub call_timeout: SimDuration,
    /// Retransmissions attempted after the first send.
    pub max_retries: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cost: CostModel::jdk_1_2_2(),
            call_timeout: SimDuration::from_millis(200),
            max_retries: 3,
        }
    }
}

impl Config {
    /// A configuration with zero CPU costs, for tests that assert on
    /// message counts and semantics rather than timing.
    pub fn zero_cost() -> Self {
        Config {
            cost: CostModel::zero(),
            ..Config::default()
        }
    }
}

/// An inbound call offered to the [`App`] (no local object matched).
///
/// Names arrive as interned ids (already translated to this endpoint's
/// symbol table); the resolved strings are carried along so error paths
/// and generic apps can still read them without a table in hand.
#[derive(Debug)]
pub struct InboundCall {
    object: NameId,
    method: NameId,
    object_name: Arc<str>,
    method_name: Arc<str>,
    args: Bytes,
    handle: ReplyHandle,
}

impl InboundCall {
    /// Interned id of the name the call was addressed to — compare against
    /// pre-interned ids instead of strings on hot paths.
    pub fn object_id(&self) -> NameId {
        self.object
    }

    /// Interned id of the requested method.
    pub fn method_id(&self) -> NameId {
        self.method
    }

    /// Name the call was addressed to.
    pub fn object(&self) -> &str {
        &self.object_name
    }

    /// Requested method.
    pub fn method(&self) -> &str {
        &self.method_name
    }

    /// Marshalled arguments (a zero-copy slice of the received frame).
    pub fn args(&self) -> &[u8] {
        &self.args
    }

    /// The handle used to answer this call later (for deferred replies).
    pub fn handle(&self) -> ReplyHandle {
        self.handle
    }

    /// Consumes the call, returning its argument buffer without copying.
    pub fn into_args(self) -> Bytes {
        self.args
    }
}

/// Identifies a deferred inbound call so the app can answer it later.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReplyHandle {
    caller: NodeId,
    call_id: u64,
    /// Caller incarnation as stamped in the request frame; a reply to a
    /// caller that has since restarted is silently dropped instead of
    /// confusing its fresh call-id space.
    caller_epoch: u64,
}

impl ReplyHandle {
    /// The node that originated the deferred call.
    pub fn caller(&self) -> NodeId {
        self.caller
    }

    /// The caller incarnation stamped in the request frame.
    pub fn caller_epoch(&self) -> u64 {
        self.caller_epoch
    }
}

/// The app's verdict on an inbound call it was offered.
pub enum CallOutcome {
    /// Answer immediately with this result.
    Reply(Result<Vec<u8>, Fault>),
    /// The app took the [`ReplyHandle`] and will answer via [`Env::reply`].
    Deferred,
    /// The app does not recognise the target; the endpoint answers with
    /// [`Fault::NotBound`].
    Unhandled,
}

/// Protocol logic layered over an endpoint (e.g. the MAGE runtime).
///
/// All methods receive an [`Env`] through which the app can originate
/// calls, bind objects, set timers and complete driver operations.
pub trait App {
    /// Called once when the node starts.
    fn on_start(&mut self, _env: &mut Env<'_, '_>) {}

    /// Called for payloads injected by the experiment driver.
    fn on_driver(&mut self, _env: &mut Env<'_, '_>, _payload: Bytes) {}

    /// Called for inbound calls that no locally bound object handles.
    fn on_call(&mut self, _env: &mut Env<'_, '_>, _from: NodeId, call: InboundCall) -> CallOutcome {
        let _ = call;
        CallOutcome::Unhandled
    }

    /// Called when an outgoing call completes (successfully or not).
    ///
    /// `token` is the correlation value passed to [`Env::call`]. A
    /// successful result is a zero-copy slice of the response frame.
    fn on_reply(&mut self, _env: &mut Env<'_, '_>, _token: u64, _result: Result<Bytes, RmiError>) {}

    /// Called when an app timer set via [`Env::set_timer`] fires.
    fn on_timer(&mut self, _env: &mut Env<'_, '_>, _tag: u64) {}

    /// Called when the endpoint detects that `peer` has restarted into a
    /// new incarnation (its epoch changed since we last interacted).
    ///
    /// By the time this runs the endpoint has already invalidated its own
    /// per-peer state — symbol-ack tracking, connection priming, learned
    /// name translations and the call windows (answered and deferred
    /// calls) of the peer's dead incarnations. Apps use the hook for
    /// *their* per-peer state: draining lock queues whose holder died,
    /// repairing registry entries that point at the lost incarnation, and
    /// so on.
    fn on_peer_restart(&mut self, _env: &mut Env<'_, '_>, _peer: NodeId) {}
}

/// A no-op app for endpoints that only serve bound objects.
#[derive(Debug, Default)]
pub struct ServerOnly;

impl App for ServerOnly {}

struct PendingCall {
    call_id: u64,
    to: NodeId,
    token: u64,
    /// The encoded frame, kept for retransmission (cloning shares the
    /// allocation; nothing is re-encoded).
    frame: Bytes,
    object: NameId,
    method: NameId,
    /// Whether the request carried first-use name strings; a response
    /// acknowledges them (the peer has learned the ids).
    named: bool,
    /// Whether an [`Fault::UnknownName`] NACK already forced a re-encode
    /// with strings attached (once per call; a second NACK is surfaced).
    reshipped: bool,
    attempts: u32,
    max_retries: u32,
    timeout: SimDuration,
    /// When the call is retransmitted (or failed) unless answered first;
    /// its entry in [`EndpointState::deadlines`].
    deadline: SimTime,
}

/// A call in a caller's window on the server.
enum Slot {
    /// Handed to the app, which answers it through [`Env::reply_with`].
    Deferred,
    /// Answered: the response as a ready-to-resend frame, with its label.
    Answered(Bytes, &'static str),
}

/// The calls of one caller incarnation, as the server sees them.
#[derive(Default)]
struct CallWindow {
    /// The caller's oldest unanswered call id, as last reported: every
    /// call below it was answered and its reply received, or abandoned.
    floor: u64,
    /// Calls this endpoint executed, sorted by call id: the ones at or
    /// above the floor, and deferred ones below it until they are
    /// answered.
    slots: VecDeque<(u64, Slot)>,
}

impl CallWindow {
    /// Raises the floor to the one a request with `call_id` and `lag`
    /// reports (`lag` 0 reports nothing) and frees the answered slots
    /// below it.
    fn raise_floor(&mut self, call_id: u64, lag: u8) {
        let Some(back) = lag.checked_sub(1) else {
            return;
        };
        let floor = call_id.saturating_sub(u64::from(back));
        if floor > self.floor {
            self.floor = floor;
            self.slots
                .retain(|(id, slot)| *id >= floor || matches!(slot, Slot::Deferred));
        }
    }

    fn find(&self, call_id: u64) -> Result<usize, usize> {
        self.slots.binary_search_by_key(&call_id, |&(id, _)| id)
    }

    /// Turns deferred `call_id` into an answered slot holding `frame`.
    /// Below the floor the caller gave up on the call and will not ask
    /// again, so the slot just goes.
    fn answer(&mut self, call_id: u64, frame: &Bytes, label: &'static str) {
        let at = match self.find(call_id) {
            Ok(at) if matches!(self.slots[at].1, Slot::Deferred) => at,
            _ => panic!("reply to unknown or already-answered call {call_id}"),
        };
        if call_id < self.floor {
            self.slots.remove(at);
        } else {
            self.slots[at].1 = Slot::Answered(frame.clone(), label);
        }
    }

    /// Records a newly executed call.
    fn insert(&mut self, call_id: u64, slot: Slot) {
        let at = self.find(call_id).expect_err("a call executes once");
        self.slots.insert(at, (call_id, slot));
    }
}

/// Whether a peer has acknowledged learning one of our interned names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NameState {
    /// Shipped at least once, no response seen yet — keep attaching the
    /// string so a lossy or partitioned link cannot strand the binding.
    Pending,
    /// A response to a name-carrying call arrived; the id alone suffices.
    Acked,
}

/// Shared endpoint state (everything except the app itself).
pub struct EndpointState {
    cfg: Config,
    syms: Arc<SymbolTable>,
    objects: IdMap<NameId, Box<dyn RemoteObject>>,
    next_call: u64,
    /// Unanswered outgoing calls, sorted by call id: the front is the
    /// oldest, whose id every request reports as its window floor.
    pending: VecDeque<PendingCall>,
    primed: BTreeSet<NodeId>,
    /// Sender side of first-use name shipment: per peer, which of our ids
    /// the peer has (or is about to have) learned.
    shipped: IdMap<NodeId, IdMap<NameId, NameState>>,
    /// Receiver side: translation of a peer's wire ids to our local ids,
    /// learned from first-use strings.
    learned: IdMap<(NodeId, u32), NameId>,
    /// Last incarnation of each peer learned from a received frame's
    /// sender-epoch field; a change invalidates every per-peer table above
    /// and below (the old incarnation's acks, learned ids, primed
    /// connection and call window died with it).
    peer_epochs: IdMap<NodeId, u64>,
    /// Server side of at-most-once: one call window per caller
    /// incarnation, keyed by `(caller, epoch stamped in its requests)` —
    /// so a purge can drop exactly a dead incarnation's window, even when
    /// the peer was never in `peer_epochs`.
    windows: IdMap<(NodeId, u64), CallWindow>,
    /// Reusable encode buffer for every outgoing frame.
    scratch: Vec<u8>,
    /// Retransmission deadlines of the unanswered calls in `pending`,
    /// sorted by `(deadline, call_id)`: one entry per call.
    deadlines: VecDeque<(SimTime, u64)>,
    /// The endpoint's one retransmission timer: when it fires and its id.
    /// It is armed, at or before the earliest deadline, exactly while
    /// `deadlines` is non-empty.
    retx_timer: Option<(SimTime, TimerId)>,
}

impl EndpointState {
    fn new(cfg: Config, syms: Arc<SymbolTable>) -> Self {
        EndpointState {
            cfg,
            syms,
            objects: IdMap::default(),
            next_call: 0,
            // Room for a pipelined client's calls in flight.
            pending: VecDeque::with_capacity(8),
            primed: BTreeSet::new(),
            shipped: IdMap::default(),
            learned: IdMap::default(),
            peer_epochs: IdMap::default(),
            windows: IdMap::default(),
            scratch: Vec::with_capacity(256),
            // Room for a pipelined client's calls in flight.
            deadlines: VecDeque::with_capacity(8),
            retx_timer: None,
        }
    }

    /// Queues `call_id`'s retransmission deadline.
    fn push_deadline(&mut self, deadline: SimTime, call_id: u64) {
        let entry = (deadline, call_id);
        let at = self.deadlines.partition_point(|&queued| queued < entry);
        self.deadlines.insert(at, entry);
    }

    /// Drops an answered call's retransmission deadline. While other
    /// calls wait, the timer stays where it is: if it fires with nothing
    /// due, it re-arms at the new earliest deadline. The last answer
    /// cancels it.
    fn remove_deadline(&mut self, ctx: &mut Context<'_>, deadline: SimTime, call_id: u64) {
        let at = self
            .deadlines
            .binary_search(&(deadline, call_id))
            .expect("a pending call's deadline is queued");
        self.deadlines.remove(at);
        if self.deadlines.is_empty() {
            if let Some((_, id)) = self.retx_timer.take() {
                ctx.cancel_timer(id);
            }
        }
    }

    /// Arms the retransmission timer at the earliest deadline, unless it
    /// already fires at or before it.
    fn arm(&mut self, ctx: &mut Context<'_>) {
        let Some(&(first, _)) = self.deadlines.front() else {
            return;
        };
        match self.retx_timer {
            Some((at, _)) if at <= first => {}
            later => {
                if let Some((_, id)) = later {
                    ctx.cancel_timer(id);
                }
                let id = ctx.set_timer(first - ctx.now(), RETX_TAG);
                self.retx_timer = Some((first, id));
            }
        }
    }

    /// The call window of `caller`'s incarnation `epoch`.
    fn window(&mut self, caller: NodeId, epoch: u64) -> &mut CallWindow {
        self.windows.entry((caller, epoch)).or_default()
    }

    /// Where `call_id` sits in the pending queue.
    fn pending_at(&self, call_id: u64) -> Option<usize> {
        self.pending
            .binary_search_by_key(&call_id, |p| p.call_id)
            .ok()
    }

    /// The `lag` a request for `call_id` carries: `call_id + 1` minus the
    /// oldest unanswered call id, or 0 when that does not fit a byte.
    fn lag(&self, call_id: u64) -> u8 {
        let floor = self.pending.front().map_or(call_id, |p| p.call_id);
        u8::try_from(call_id + 1 - floor).unwrap_or(0)
    }

    /// Records `peer`'s incarnation as learned from a received frame.
    /// Returns `true` — after invalidating all per-peer state — when the
    /// peer has restarted since we last heard from it.
    fn note_peer_epoch(&mut self, peer: NodeId, epoch: u64) -> bool {
        match self.peer_epochs.insert(peer, epoch) {
            Some(old) if old != epoch => {
                self.purge_peer(peer);
                true
            }
            Some(_) => false,
            None => {
                // First sighting of this peer's epoch. A call window
                // normally implies a prior sighting, but one can outlive
                // the tracking map's knowledge (first contact after a
                // restart); a window of a different caller epoch belongs
                // to a dead incarnation and must not answer — or block —
                // the fresh one's calls.
                self.purge_stale_epoch_entries(peer, epoch);
                false
            }
        }
    }

    /// Forgets everything tied to a dead incarnation of `peer`: name-ack
    /// state (strings must ship again), the primed connection, learned id
    /// translations and its call windows (the fresh incarnation reuses
    /// call ids from zero).
    fn purge_peer(&mut self, peer: NodeId) {
        self.primed.remove(&peer);
        self.shipped.remove(&peer);
        self.learned.retain(|(node, _), _| *node != peer);
        self.windows.retain(|(node, _), _| *node != peer);
    }

    /// Drops `peer`'s call windows whose caller epoch differs from
    /// `epoch`.
    fn purge_stale_epoch_entries(&mut self, peer: NodeId, epoch: u64) {
        self.windows
            .retain(|&(node, e), _| node != peer || e == epoch);
    }

    /// Translates a wire id from `from` to a local id, learning the
    /// binding when a first-use string is attached.
    fn translate(&mut self, from: NodeId, wire_id: u32, name: Option<&str>) -> Option<NameId> {
        if let Some(name) = name {
            let local = self.syms.intern(name);
            self.learned.insert((from, wire_id), local);
            return Some(local);
        }
        self.learned.get(&(from, wire_id)).copied()
    }

    /// Marks `id` as acknowledged by `to` (stop attaching the string).
    fn ack_name(&mut self, to: NodeId, id: NameId) {
        if let Some(states) = self.shipped.get_mut(&to) {
            if let Some(state) = states.get_mut(&id) {
                *state = NameState::Acked;
            }
        }
    }

    /// Whether the string for `id` must ride along to `to`, registering
    /// the shipment.
    fn needs_name(&mut self, to: NodeId, id: NameId) -> bool {
        let states = self.shipped.entry(to).or_default();
        match states.get(&id) {
            Some(NameState::Acked) => false,
            _ => {
                states.insert(id, NameState::Pending);
                true
            }
        }
    }
}

/// The per-dispatch environment handed to [`App`] methods.
pub struct Env<'a, 'c> {
    ctx: &'a mut Context<'c>,
    state: &'a mut EndpointState,
    surcharge: SimDuration,
}

impl<'a, 'c> Env<'a, 'c> {
    fn new(ctx: &'a mut Context<'c>, state: &'a mut EndpointState, surcharge: SimDuration) -> Self {
        Env {
            ctx,
            state,
            surcharge,
        }
    }

    /// This endpoint's node id.
    pub fn node(&self) -> NodeId {
        self.ctx.node()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// The endpoint's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.state.cfg.cost
    }

    /// The endpoint's symbol table (shared world-wide by the harness).
    pub fn symbols(&self) -> &Arc<SymbolTable> {
        &self.state.syms
    }

    /// The last incarnation of `peer` learned from received frames
    /// (`None` before the first frame). Purely message-driven — this is
    /// the endpoint's *belief*, not the simulator's ground truth.
    pub fn peer_epoch(&self, peer: NodeId) -> Option<u64> {
        self.state.peer_epochs.get(&peer).copied()
    }

    /// Whether the world records a trace (rich labels are only worth
    /// building when it does).
    pub fn trace_enabled(&self) -> bool {
        self.ctx.trace_enabled()
    }

    /// Deterministic random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        self.ctx.rng()
    }

    /// Adds `d` of node-local compute time before any message sent in the
    /// remainder of this dispatch reaches the wire.
    ///
    /// Higher layers use this to charge protocol-specific CPU work such as
    /// class loading or object reconstruction.
    pub fn charge(&mut self, d: SimDuration) {
        self.surcharge += d;
    }

    /// Binds `object` under `name` in this endpoint's registry, returning
    /// the previous binding if any.
    pub fn bind(
        &mut self,
        name: impl IntoName,
        object: Box<dyn RemoteObject>,
    ) -> Option<Box<dyn RemoteObject>> {
        let id = name.into_name(&self.state.syms);
        self.state.objects.insert(id, object)
    }

    /// Removes the binding for `name`, returning the object if it existed.
    pub fn unbind(&mut self, name: impl IntoName) -> Option<Box<dyn RemoteObject>> {
        let id = name.into_name(&self.state.syms);
        self.state.objects.remove(&id)
    }

    /// Whether `name` is bound locally.
    pub fn is_bound(&self, name: &str) -> bool {
        self.state
            .syms
            .lookup(name)
            .is_some_and(|id| self.state.objects.contains_key(&id))
    }

    /// Originates a call with the endpoint's default timeout and retries.
    ///
    /// `object`/`method` accept pre-interned [`NameId`]s (free) or strings
    /// (one interning lookup). `token` correlates the eventual
    /// [`App::on_reply`].
    pub fn call(
        &mut self,
        to: NodeId,
        object: impl IntoName,
        method: impl IntoName,
        args: impl AsRef<[u8]>,
        token: u64,
    ) {
        let (timeout, retries) = (self.state.cfg.call_timeout, self.state.cfg.max_retries);
        self.call_with(to, object, method, args, token, timeout, retries);
    }

    /// Originates a call with explicit timeout and retry budget.
    #[allow(clippy::too_many_arguments)]
    pub fn call_with(
        &mut self,
        to: NodeId,
        object: impl IntoName,
        method: impl IntoName,
        args: impl AsRef<[u8]>,
        token: u64,
        timeout: SimDuration,
        max_retries: u32,
    ) {
        let object = object.into_name(&self.state.syms);
        let method = method.into_name(&self.state.syms);
        let args = args.as_ref();
        let call_id = self.state.next_call;
        self.state.next_call += 1;

        // No oracle consulted here: if the peer restarted and lost its
        // learned name table since we last heard from it, the bare-id
        // request is answered with a `Fault::UnknownName` NACK (stamped
        // with the fresh incarnation's epoch, which purges our per-peer
        // state) and re-sent with the strings attached.
        let ship_object = self.state.needs_name(to, object);
        let ship_method = self.state.needs_name(to, method);
        let named = ship_object || ship_method;
        let tracing = self.ctx.trace_enabled();
        // Steady state (names acked, tracing off): skip name resolution
        // entirely — the ids alone go on the wire under a static label.
        let resolved = (named || tracing).then(|| {
            (
                self.state.syms.resolve_lossy(object),
                self.state.syms.resolve_lossy(method),
            )
        });
        let (object_str, method_str) = match &resolved {
            Some((o, m)) => (Some(&**o), Some(&**m)),
            None => (None, None),
        };
        let lag = self.state.lag(call_id);
        let frame = encode_call_req(
            &mut self.state.scratch,
            call_id,
            lag,
            self.ctx.self_epoch(),
            object,
            if ship_object { object_str } else { None },
            method,
            if ship_method { method_str } else { None },
            args,
        );

        let mut delay = self.surcharge + self.state.cfg.cost.marshal(args.len() as u64);
        if self.state.primed.insert(to) {
            delay += self.state.cfg.cost.connect;
        }
        let label: Label = if tracing {
            call_label(
                object_str.unwrap_or_default(),
                method_str.unwrap_or_default(),
            )
            .into()
        } else {
            "call".into()
        };
        self.ctx.send_after(delay, to, label, frame.clone());
        let deadline = self.ctx.now() + delay + timeout;
        // Call ids only grow, so the queue stays sorted.
        self.state.pending.push_back(PendingCall {
            call_id,
            to,
            token,
            frame,
            object,
            method,
            named,
            reshipped: false,
            attempts: 1,
            max_retries,
            timeout,
            deadline,
        });
        self.state.push_deadline(deadline, call_id);
        self.state.arm(self.ctx);
    }

    /// Answers a deferred inbound call. Returns `true` when the reply was
    /// sent, `false` when it was dropped because the caller's incarnation
    /// died while the call was deferred (answering would corrupt the fresh
    /// incarnation's reused call-id space).
    ///
    /// # Panics
    ///
    /// Panics if `handle` does not correspond to a deferred call of a
    /// still-live caller incarnation (answering twice, or fabricating a
    /// handle, is a protocol bug).
    pub fn reply(&mut self, handle: ReplyHandle, result: Result<Vec<u8>, Fault>) -> bool {
        self.reply_with(handle, result.as_ref().map(|v| v.as_slice()))
    }

    /// Borrowed-view form of [`Env::reply`]: answers a deferred call
    /// without taking ownership of the payload (no copy beyond the
    /// response frame itself). Useful when forwarding a payload that
    /// already lives in a received frame.
    ///
    /// # Panics
    ///
    /// Same as [`Env::reply`].
    pub fn reply_with(&mut self, handle: ReplyHandle, result: Result<&[u8], &Fault>) -> bool {
        let Some(window) = self
            .state
            .windows
            .get_mut(&(handle.caller, handle.caller_epoch))
        else {
            // The caller restarted while its call was deferred: the window
            // was purged with the dead incarnation (our learned view of the
            // peer's epoch has moved past the handle's). Drop the reply.
            if self.state.peer_epochs.get(&handle.caller).copied() != Some(handle.caller_epoch) {
                return false;
            }
            panic!("reply to unknown or already-answered call {handle:?}");
        };
        let label = match &result {
            Ok(_) => "rsp:ok",
            Err(_) => "rsp:fault",
        };
        // The response echoes the caller epoch from the request, so a
        // restarted caller discards it instead of matching it against a
        // reused call id.
        let frame = encode_call_rsp(
            &mut self.state.scratch,
            handle.call_id,
            self.ctx.self_epoch(),
            handle.caller_epoch,
            result,
        );
        window.answer(handle.call_id, &frame, label);
        let delay = self.surcharge;
        self.ctx.send_after(delay, handle.caller, label, frame);
        true
    }

    /// Sets an application timer. `tag` must not use the top bit, which is
    /// reserved for the endpoint's retransmission timer.
    ///
    /// # Panics
    ///
    /// Panics if `tag` has the reserved bit set.
    pub fn set_timer(&mut self, after: SimDuration, tag: u64) -> TimerId {
        assert_eq!(tag & RETX_TAG, 0, "app timer tags must not use the top bit");
        self.ctx.set_timer(after, tag)
    }

    /// Cancels an application timer.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.ctx.cancel_timer(id);
    }

    /// Completes a driver operation with a payload.
    pub fn complete_op(&mut self, op: OpId, payload: Bytes) {
        self.ctx.complete(op, payload);
    }

    /// Completes a driver operation with a failure.
    pub fn fail_op(&mut self, op: OpId, message: impl Into<String>) {
        self.ctx.fail(op, message);
    }

    /// Emits a trace annotation from this node.
    ///
    /// The note is discarded when the world is not tracing, but a
    /// `format!`-built text has already allocated by then: callers must
    /// guard such notes with [`Env::trace_enabled`], so that tracing off
    /// costs nothing, failure paths included.
    pub fn note(&mut self, text: impl Into<String>) {
        self.ctx.note(text);
    }

    /// Bumps a named world metric counter (see
    /// [`Context::count`](mage_sim::Context::count)).
    pub fn count(&mut self, name: &'static str) {
        self.ctx.count(name);
    }
}

/// An RMI endpoint actor parameterised by its [`App`].
pub struct Endpoint<A> {
    app: A,
    state: EndpointState,
}

impl<A: App> Endpoint<A> {
    /// Creates an endpoint with the given app and configuration, and a
    /// private symbol table.
    ///
    /// Endpoints with private tables interoperate through first-use name
    /// shipment **at the RMI envelope level only** (the object/method ids
    /// of each frame are translated on receipt). Apps that embed
    /// [`NameId`]s inside their *own* payloads — the MAGE runtime's
    /// service arguments do — bypass that translation and therefore
    /// require every node to share one table: construct those endpoints
    /// with [`Endpoint::with_symbols`], as `mage-core`'s runtime builder
    /// does.
    pub fn new(app: A, cfg: Config) -> Self {
        Endpoint::with_symbols(app, cfg, SymbolTable::shared())
    }

    /// Creates an endpoint sharing the world-wide symbol table.
    pub fn with_symbols(app: A, cfg: Config, syms: Arc<SymbolTable>) -> Self {
        Endpoint {
            app,
            state: EndpointState::new(cfg, syms),
        }
    }

    /// Binds `object` under `name` before the world starts.
    pub fn bind(&mut self, name: impl IntoName, object: Box<dyn RemoteObject>) {
        let id = name.into_name(&self.state.syms);
        self.state.objects.insert(id, object);
    }

    /// Shared access to the app (for post-run inspection in tests).
    pub fn app(&self) -> &A {
        &self.app
    }

    /// How many calls the call windows hold, answered or deferred (for
    /// inspection in tests).
    pub fn window_slots(&self) -> usize {
        self.state.windows.values().map(|w| w.slots.len()).sum()
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_call_req(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        call_id: u64,
        lag: u8,
        caller_epoch: u64,
        object: NameId,
        method: NameId,
        args: Bytes,
    ) {
        let handle = ReplyHandle {
            caller: from,
            call_id,
            caller_epoch,
        };
        let window = self.state.window(from, caller_epoch);
        window.raise_floor(call_id, lag);
        // Below the floor the caller has the answer or gave up: drop.
        if call_id < window.floor {
            return;
        }
        if let Ok(at) = window.find(call_id) {
            // At-most-once: a duplicate of an answered call gets the held
            // frame again, without re-executing or re-encoding; one of a
            // call still deferred is dropped, and the eventual reply
            // satisfies the client's retransmission.
            if let Slot::Answered(frame, label) = &window.slots[at].1 {
                ctx.send(from, *label, frame.clone());
            }
            return;
        }
        if ctx.trace_enabled() {
            // Invariant marker for the chaos harness: one per *execution*
            // of a call (dedup hits above re-send without re-emitting).
            ctx.note(format!(
                "invariant:exec:{}:{call_id}:{caller_epoch}",
                from.as_raw()
            ));
        }
        let (object_str, method_str) = (
            self.state.syms.resolve_lossy(object),
            self.state.syms.resolve_lossy(method),
        );
        // Dispatch cost parity with the string-shipping format: names count
        // toward request size whether or not they rode this frame. Network
        // transfer time, by contrast, deliberately reflects the real
        // (smaller) v2 frame — saving wire bytes in the steady state is the
        // point of interning, exactly as a production RPC stack would.
        let req_bytes = (args.len() + object_str.len() + method_str.len()) as u64;
        let dispatch_cost = self.state.cfg.cost.dispatch(req_bytes);
        // Local registry first (plain RMI skeletons)...
        if let Some(obj) = self.state.objects.get_mut(&object) {
            let mut oenv = ObjectEnv::new(ctx.node(), ctx.now(), ctx.rng());
            let result = obj.invoke(&method_str, &args, &mut oenv);
            let service = oenv.consumed();
            let label = match &result {
                Ok(_) => "rsp:ok",
                Err(_) => "rsp:fault",
            };
            let frame = encode_call_rsp(
                &mut self.state.scratch,
                call_id,
                ctx.self_epoch(),
                caller_epoch,
                result.as_ref().map(|v| v.as_slice()),
            );
            self.state
                .window(from, caller_epoch)
                .insert(call_id, Slot::Answered(frame.clone(), label));
            ctx.send_after(dispatch_cost + service, from, label, frame);
            return;
        }
        // ...then the app layer (e.g. MAGE system services).
        self.state
            .window(from, caller_epoch)
            .insert(call_id, Slot::Deferred);
        let call = InboundCall {
            object,
            method,
            object_name: object_str,
            method_name: method_str,
            args,
            handle,
        };
        let mut env = Env::new(ctx, &mut self.state, dispatch_cost);
        match self.app.on_call(&mut env, from, call) {
            CallOutcome::Reply(result) => {
                env.reply(handle, result);
            }
            CallOutcome::Deferred => {}
            CallOutcome::Unhandled => {
                env.reply(handle, Err(Fault::NotBound("<unhandled>".into())));
            }
        }
    }

    fn handle_call_rsp(
        &mut self,
        ctx: &mut Context<'_>,
        call_id: u64,
        req_epoch: u64,
        result: Result<Bytes, Fault>,
    ) {
        // A reply addressed to a previous incarnation of this node: the
        // call it answers died with that incarnation, and this
        // incarnation's call ids restart from zero — matching it against
        // `pending` would complete an unrelated call. Discard.
        if req_epoch != ctx.self_epoch() {
            ctx.count("stale_replies_dropped");
            if ctx.trace_enabled() {
                ctx.note(format!(
                    "invariant:stale-rsp-dropped:{call_id}:{req_epoch}:{}",
                    ctx.self_epoch()
                ));
            }
            return;
        }
        // Transport-level NACK: the peer never learned one of the bare
        // interned ids this request carried (its table died in a crash, or
        // the first-use carrier frame was lost). Re-send the same call —
        // same call id, the NACK is never cached — with both strings
        // attached. Once per call: a second NACK surfaces to the app.
        if let Err(Fault::UnknownName { .. }) = &result {
            if self.reship_with_names(ctx, call_id) {
                return;
            }
        }
        let Some(pending) = self
            .state
            .pending_at(call_id)
            .and_then(|at| self.state.pending.remove(at))
        else {
            return; // late duplicate after a retransmitted call already completed
        };
        self.state.remove_deadline(ctx, pending.deadline, call_id);
        if ctx.trace_enabled() {
            ctx.note(format!(
                "invariant:rsp-accepted:{call_id}:{req_epoch}:{}",
                ctx.self_epoch()
            ));
        }
        if pending.named && !matches!(result, Err(Fault::UnknownName { .. })) {
            // The peer has processed a request that carried the strings;
            // from now on the ids travel alone.
            self.state.ack_name(pending.to, pending.object);
            self.state.ack_name(pending.to, pending.method);
        }
        let outcome = result.map_err(RmiError::Fault);
        let mut env = Env::new(ctx, &mut self.state, SimDuration::ZERO);
        self.app.on_reply(&mut env, pending.token, outcome);
    }

    /// Re-encodes a pending call with both name strings attached and
    /// re-sends it (the answer to a [`Fault::UnknownName`] NACK). Returns
    /// `false` when the call is unknown or already re-shipped once — the
    /// caller then surfaces the NACK instead of looping.
    fn reship_with_names(&mut self, ctx: &mut Context<'_>, call_id: u64) -> bool {
        let Some(at) = self.state.pending_at(call_id) else {
            return true; // late duplicate; nothing to surface either
        };
        let pending = &self.state.pending[at];
        if pending.reshipped {
            return false;
        }
        let (to, object, method) = (pending.to, pending.object, pending.method);
        // The original args live inside the kept frame; borrow them
        // zero-copy rather than storing a second copy per call.
        let args = match WireMsg::decode(&pending.frame) {
            Ok(WireMsg::CallReq { args, .. }) => args,
            _ => return false, // not a request frame; surface the NACK
        };
        // Register the shipment so the ack machinery keeps attaching the
        // strings until a non-NACK response confirms them.
        self.state.needs_name(to, object);
        self.state.needs_name(to, method);
        let (object_str, method_str) = (
            self.state.syms.resolve_lossy(object),
            self.state.syms.resolve_lossy(method),
        );
        let lag = self.state.lag(call_id);
        let frame = encode_call_req(
            &mut self.state.scratch,
            call_id,
            lag,
            ctx.self_epoch(),
            object,
            Some(&object_str),
            method,
            Some(&method_str),
            &args,
        );
        let label: Label = if ctx.trace_enabled() {
            call_label(&object_str, &method_str).into()
        } else {
            "call".into()
        };
        // Resend immediately, but leave the call's retransmission
        // deadline where it is: the deadline queue keeps one entry per
        // call, which now retransmits the updated frame. Restarting the
        // deadline would let every NACK postpone the retry schedule.
        ctx.send(to, label, frame.clone());
        let pending = &mut self.state.pending[at];
        pending.frame = frame;
        pending.named = true;
        pending.reshipped = true;
        true
    }

    /// The retransmission timer fired: every call whose deadline has come
    /// is retransmitted, with its next deadline `timeout` from now, or
    /// failed with [`RmiError::PeerUnreachable`] once its retries are
    /// spent. Then the timer re-arms at the earliest remaining deadline.
    fn handle_retx(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        debug_assert_eq!(
            self.state.retx_timer.map(|(at, _)| at),
            Some(now),
            "only the armed retransmission timer fires"
        );
        // The spent timer stays recorded until every due call is handled,
        // so a call the app makes from `on_reply` arms nothing: the re-arm
        // below covers it.
        while let Some(&(deadline, call_id)) = self.state.deadlines.front() {
            if deadline > now {
                break;
            }
            self.state.deadlines.pop_front();
            let at = self
                .state
                .pending_at(call_id)
                .expect("every queued deadline belongs to a pending call");
            let pending = &mut self.state.pending[at];
            if pending.attempts <= pending.max_retries {
                pending.attempts += 1;
                pending.deadline = now + pending.timeout;
                let (to, next) = (pending.to, pending.deadline);
                let frame = pending.frame.clone();
                let label: Label = if ctx.trace_enabled() {
                    let object = self.state.syms.resolve_lossy(pending.object);
                    let method = self.state.syms.resolve_lossy(pending.method);
                    call_label(&object, &method).into()
                } else {
                    "call".into()
                };
                ctx.send(to, label, frame);
                self.state.push_deadline(next, call_id);
            } else {
                // Retry budget exhausted with no response at all: the peer
                // is unreachable from here (crashed, partitioned, or
                // silent). Fail the call with a typed error instead of
                // leaving the token pending forever.
                let pending = self.state.pending.remove(at).expect("checked above");
                let mut env = Env::new(ctx, &mut self.state, SimDuration::ZERO);
                self.app.on_reply(
                    &mut env,
                    pending.token,
                    Err(RmiError::PeerUnreachable {
                        peer: pending.to,
                        attempts: pending.attempts,
                    }),
                );
            }
        }
        self.state.retx_timer = None;
        self.state.arm(ctx);
    }
}

impl<A: App> Actor for Endpoint<A> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let mut env = Env::new(ctx, &mut self.state, SimDuration::ZERO);
        self.app.on_start(&mut env);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        if from.is_driver() {
            let mut env = Env::new(ctx, &mut self.state, SimDuration::ZERO);
            self.app.on_driver(&mut env, payload);
            return;
        }
        let msg = match WireMsg::decode(&payload) {
            Ok(msg) => msg,
            Err(err) => {
                if ctx.trace_enabled() {
                    ctx.note(format!("dropping malformed message: {err}"));
                }
                return;
            }
        };
        // Message-driven restart detection: the frame states its sender's
        // incarnation. First contact with a fresh incarnation purges every
        // per-peer table, then the app repairs its own state (lock queues,
        // registry entries) before the message dispatches. The simulator's
        // epoch oracle survives only as a ground-truth cross-check.
        let sender_epoch = msg.sender_epoch();
        debug_assert_eq!(
            sender_epoch,
            ctx.node_epoch(from),
            "wire-carried epoch must agree with the simulator oracle for a delivered frame"
        );
        if self.state.note_peer_epoch(from, sender_epoch) {
            let mut env = Env::new(ctx, &mut self.state, SimDuration::ZERO);
            self.app.on_peer_restart(&mut env, from);
        }
        match msg {
            WireMsg::CallReq {
                call_id,
                lag,
                sender_epoch,
                object,
                method,
                args,
            } => {
                let object_wire = object.id.as_raw();
                let method_wire = method.id.as_raw();
                let object = self
                    .state
                    .translate(from, object_wire, object.name.as_deref());
                let method = self
                    .state
                    .translate(from, method_wire, method.name.as_deref());
                let (Some(object), Some(method)) = (object, method) else {
                    // A bare id we never learned: the first-use carrier
                    // frame was lost, or this endpoint restarted and its
                    // learned table died. NACK with the offending wire id
                    // (never cached — it is not an execution outcome); the
                    // caller re-sends with the strings attached.
                    let unknown = if object.is_none() {
                        object_wire
                    } else {
                        method_wire
                    };
                    let fault = Fault::UnknownName { id: unknown };
                    let frame = encode_call_rsp(
                        &mut self.state.scratch,
                        call_id,
                        ctx.self_epoch(),
                        sender_epoch,
                        Err(&fault),
                    );
                    ctx.send(from, "rsp:unknown-name", frame);
                    return;
                };
                self.handle_call_req(ctx, from, call_id, lag, sender_epoch, object, method, args);
            }
            WireMsg::CallRsp {
                call_id,
                req_epoch,
                result,
                ..
            } => {
                self.handle_call_rsp(ctx, call_id, req_epoch, result);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        if tag == RETX_TAG {
            self.handle_retx(ctx);
        } else {
            let mut env = Env::new(ctx, &mut self.state, SimDuration::ZERO);
            self.app.on_timer(&mut env, tag);
        }
    }
}

impl<A> std::fmt::Debug for Endpoint<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("bound_objects", &self.state.objects.len())
            .field("pending_calls", &self.state.pending.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    use mage_sim::{TraceEvent, TraceMode, World};

    use super::*;
    use crate::driver::{client_endpoint, drive_call};

    fn state() -> EndpointState {
        EndpointState::new(Config::default(), SymbolTable::shared())
    }

    fn frame(tag: u8) -> Bytes {
        Bytes::from(vec![tag])
    }

    fn answered(tag: u8) -> Slot {
        Slot::Answered(frame(tag), "rsp:ok")
    }

    fn ids(window: &CallWindow) -> Vec<u64> {
        window.slots.iter().map(|&(id, _)| id).collect()
    }

    /// A counter object that counts its executions in `hits`.
    fn counter(hits: &Rc<Cell<u64>>) -> Box<dyn RemoteObject> {
        let hits = Rc::clone(hits);
        Box::new(move |_m: &str, _a: &[u8], _e: &mut ObjectEnv<'_>| {
            hits.set(hits.get() + 1);
            Ok(vec![])
        })
    }

    /// Runs an endpoint and records how many slots its call windows hold
    /// after each event: now, and at most so far.
    struct Watched<A> {
        endpoint: Endpoint<A>,
        held: Rc<Cell<(usize, usize)>>,
    }

    impl<A: App> Watched<A> {
        fn record(&self) {
            let now = self.endpoint.window_slots();
            let (_, most) = self.held.get();
            self.held.set((now, most.max(now)));
        }
    }

    impl<A: App> Actor for Watched<A> {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.endpoint.on_start(ctx);
        }

        fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
            self.endpoint.on_message(ctx, from, payload);
            self.record();
        }

        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
            self.endpoint.on_timer(ctx, tag);
            self.record();
        }
    }

    /// A peer-epoch change must invalidate every per-peer table: symbol
    /// acks (strings ship again), priming, learned translations and the
    /// call window, answered and deferred slots alike — and only for that
    /// peer.
    #[test]
    fn epoch_change_purges_all_per_peer_state() {
        let mut st = state();
        let peer = NodeId::from_raw(1);
        let other = NodeId::from_raw(2);
        let name = st.syms.intern("geoData");
        for node in [peer, other] {
            assert!(st.needs_name(node, name), "first use ships the string");
            st.ack_name(node, name);
            assert!(!st.needs_name(node, name), "acked ids travel alone");
            st.primed.insert(node);
            st.learned.insert((node, 7), name);
            st.window(node, 0).insert(1, answered(9));
            st.window(node, 0).insert(2, Slot::Deferred);
        }
        assert!(!st.note_peer_epoch(peer, 0), "first sighting records only");
        assert!(st.note_peer_epoch(peer, 1), "epoch bump detected");
        assert!(
            st.needs_name(peer, name),
            "restarted peer must be re-sent the string"
        );
        assert!(!st.primed.contains(&peer));
        assert!(!st.learned.contains_key(&(peer, 7)));
        assert!(!st.windows.contains_key(&(peer, 0)));
        // The other peer's state is untouched.
        assert!(!st.needs_name(other, name));
        assert!(st.primed.contains(&other));
        assert!(st.learned.contains_key(&(other, 7)));
        assert_eq!(ids(&st.windows[&(other, 0)]), [1, 2]);
    }

    /// The first-contact-after-restart edge: call windows can exist for a
    /// peer that was never recorded in `peer_epochs`. The first sighting
    /// of that peer's epoch must still drop every window of a *different*
    /// caller epoch — it belongs to a dead incarnation and must neither
    /// answer nor block the fresh incarnation's calls.
    #[test]
    fn first_sighting_purges_entries_with_stale_caller_epochs() {
        let mut st = state();
        let peer = NodeId::from_raw(3);
        // Slots from epoch 0 and epoch 2, installed without the peer ever
        // being noted in `peer_epochs`.
        st.window(peer, 0).insert(1, answered(1));
        st.window(peer, 2).insert(2, answered(2));
        st.window(peer, 0).insert(3, Slot::Deferred);
        st.window(peer, 2).insert(4, Slot::Deferred);
        assert!(!st.peer_epochs.contains_key(&peer), "precondition");
        // First sighting at epoch 2: the stale window goes, current stays.
        assert!(
            !st.note_peer_epoch(peer, 2),
            "first sighting is not a restart"
        );
        assert!(!st.windows.contains_key(&(peer, 0)));
        assert_eq!(ids(&st.windows[&(peer, 2)]), [2, 4]);
    }

    #[test]
    fn raising_the_floor_frees_answered_slots_and_keeps_deferred_ones() {
        let mut w = CallWindow::default();
        w.insert(0, answered(0));
        w.insert(1, Slot::Deferred);
        w.insert(2, answered(2));
        w.insert(3, answered(3));
        // A request for call 4 whose caller still waits on call 3.
        w.raise_floor(4, 2);
        assert_eq!(w.floor, 3);
        assert_eq!(ids(&w), [1, 3]);
        // A retransmission's older report lowers nothing.
        w.raise_floor(2, 1);
        assert_eq!(w.floor, 3);
        assert_eq!(ids(&w), [1, 3]);
    }

    #[test]
    fn a_deferred_call_answered_below_the_floor_is_not_stored() {
        let mut w = CallWindow::default();
        w.insert(0, Slot::Deferred);
        w.insert(1, Slot::Deferred);
        // The caller gave up on calls 0 and 1.
        w.raise_floor(2, 1);
        w.answer(0, &frame(0), "rsp:ok");
        assert_eq!(ids(&w), [1]);
        // At or above the floor the answer is held for retransmissions.
        w.insert(2, Slot::Deferred);
        w.answer(2, &frame(2), "rsp:ok");
        assert!(matches!(w.slots.back(), Some((2, Slot::Answered(f, _))) if *f == frame(2)));
    }

    #[test]
    fn lag_0_leaves_the_floor_where_it_was() {
        let mut w = CallWindow::default();
        w.insert(0, answered(0));
        w.raise_floor(300, 0);
        assert_eq!(w.floor, 0);
        assert_eq!(ids(&w), [0]);
        w.raise_floor(300, 1);
        assert_eq!(w.floor, 300);
        assert!(w.slots.is_empty());
        // A caller with nothing in flight reports its new call as the floor.
        assert_eq!(state().lag(7), 1);
    }

    /// Sends each driver payload on to `to` as a frame, and keeps the
    /// frames it receives.
    struct Raw {
        to: NodeId,
        got: Rc<RefCell<Vec<WireMsg>>>,
    }

    impl Actor for Raw {
        fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
            if from.is_driver() {
                ctx.send(self.to, "call", payload);
            } else {
                let msg = WireMsg::decode(&payload).expect("endpoints send v2 frames");
                self.got.borrow_mut().push(msg);
            }
        }
    }

    #[test]
    fn a_request_below_the_floor_does_not_execute() {
        let hits = Rc::new(Cell::new(0));
        let mut world = World::new(1);
        let mut server = Endpoint::new(ServerOnly, Config::zero_cost());
        server.bind("counter", counter(&hits));
        let server = world.add_node("server", server);
        let got = Rc::new(RefCell::new(Vec::new()));
        let raw = world.add_node(
            "raw",
            Raw {
                to: server,
                got: Rc::clone(&got),
            },
        );
        let mut send = |call_id: u64, lag: u8| {
            let (object, method) = (NameId::from_raw(0), NameId::from_raw(1));
            let frame = encode_call_req(
                &mut Vec::new(),
                call_id,
                lag,
                0,
                object,
                Some("counter"),
                method,
                Some("inc"),
                &[],
            );
            world.inject(raw, "frame", frame);
            world.run_until_idle().unwrap();
            (hits.get(), got.borrow().len())
        };
        // Call 5 reports itself as the oldest unanswered: floor 5.
        assert_eq!(send(5, 1), (1, 1));
        // Calls 3 and 4 are below it: dropped unexecuted and unanswered,
        // whatever they report (lag 0 reports nothing).
        assert_eq!(send(3, 1), (1, 1));
        assert_eq!(send(4, 0), (1, 1));
        // A duplicate of call 5 gets its held answer again.
        assert_eq!(send(5, 1), (1, 2));
    }

    /// An app that parks the first call it is offered for 100 ms and
    /// answers every later one at once.
    #[derive(Default)]
    struct ParkFirst {
        parked: Option<ReplyHandle>,
        seen: bool,
    }

    impl App for ParkFirst {
        fn on_call(
            &mut self,
            env: &mut Env<'_, '_>,
            _from: NodeId,
            call: InboundCall,
        ) -> CallOutcome {
            if std::mem::replace(&mut self.seen, true) {
                return CallOutcome::Reply(Ok(vec![1]));
            }
            self.parked = Some(call.handle());
            env.set_timer(SimDuration::from_millis(100), 1);
            CallOutcome::Deferred
        }

        fn on_timer(&mut self, env: &mut Env<'_, '_>, _tag: u64) {
            let handle = self.parked.take().expect("one call parked");
            assert!(env.reply(handle, Ok(vec![0])), "the caller is alive");
        }
    }

    /// A deferred call whose caller gave up on it is still answered on the
    /// wire when the app replies, but its frame is not held.
    #[test]
    fn a_late_answer_below_the_floor_is_sent_and_not_held() {
        let mut world = World::new(1);
        world.set_trace_mode(TraceMode::Full);
        let held = Rc::new(Cell::new((0, 0)));
        let server = world.add_node(
            "server",
            Watched {
                endpoint: Endpoint::new(ParkFirst::default(), Config::zero_cost()),
                held: Rc::clone(&held),
            },
        );
        let impatient = Config {
            call_timeout: SimDuration::from_millis(10),
            max_retries: 0,
            ..Config::zero_cost()
        };
        let client = world.add_node("client", client_endpoint(impatient));
        let first = drive_call(&mut world, client, server, "svc", "work", vec![]).unwrap();
        assert!(first.unwrap_err().contains("unreachable"));
        // The next call raises the floor past the parked one.
        drive_call(&mut world, client, server, "svc", "work", vec![])
            .unwrap()
            .unwrap();
        assert_eq!(held.get().0, 2, "the parked call and the answered one");
        world.run_until_idle().unwrap();
        let answers = world
            .trace()
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Send { from, label, .. } if *from == server && label == "rsp:ok"))
            .count();
        assert_eq!(answers, 2, "the late answer goes on the wire");
        assert_eq!(held.get().0, 1, "only the answer at the floor is held");
    }

    /// Keeps `depth` calls in flight until `total` were made.
    struct Pipeline {
        server: NodeId,
        depth: u64,
        total: u64,
        made: u64,
        answered: Rc<Cell<u64>>,
    }

    impl Pipeline {
        fn issue(&mut self, env: &mut Env<'_, '_>) {
            if self.made < self.total {
                self.made += 1;
                env.call(self.server, "counter", "inc", [], 0);
            }
        }
    }

    impl App for Pipeline {
        fn on_start(&mut self, env: &mut Env<'_, '_>) {
            for _ in 0..self.depth {
                self.issue(env);
            }
        }

        fn on_reply(
            &mut self,
            env: &mut Env<'_, '_>,
            _token: u64,
            result: Result<Bytes, RmiError>,
        ) {
            result.expect("no loss, no failure");
            self.answered.set(self.answered.get() + 1);
            self.issue(env);
        }
    }

    #[test]
    fn a_depth_8_pipelining_callers_window_holds_at_most_8_slots() {
        let (hits, answered) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
        let held = Rc::new(Cell::new((0, 0)));
        let mut world = World::new(1);
        let mut endpoint = Endpoint::new(ServerOnly, Config::zero_cost());
        endpoint.bind("counter", counter(&hits));
        let server = world.add_node(
            "server",
            Watched {
                endpoint,
                held: Rc::clone(&held),
            },
        );
        world.add_node(
            "client",
            Endpoint::new(
                Pipeline {
                    server,
                    depth: 8,
                    total: 10_000,
                    made: 0,
                    answered: Rc::clone(&answered),
                },
                Config::zero_cost(),
            ),
        );
        world.run_until_idle().unwrap();
        assert_eq!((hits.get(), answered.get()), (10_000, 10_000));
        assert_eq!(held.get().1, 8, "the window follows the calls in flight");
    }
}
