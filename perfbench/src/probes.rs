//! Layer floor probes: each layer timed on its own, from outside, at the
//! workload's payload sizes.
//!
//! * `codec` — `to_bytes`/`from_bytes` of the workload's argument and
//!   state values;
//! * `sim` — a no-op actor ping-pong through `World::step`;
//! * `rmi` — raw `drive_call` round trips (no MAGE engine);
//! * `session` — one blocking `Session` op of each kind at a time in an
//!   otherwise idle three-namespace runtime.
//!
//! Every probe uses the paper's default link and cost model. Times are
//! the median over batches of the per-op mean; allocation counts are
//! exact per-op averages.

use std::time::Instant;

use bytes::Bytes;
use mage_core::attribute::{Cle, Cod, Grev, MobileAgent, MobilityAttribute, Rev, Rpc};
use mage_core::{Durability, MageError, ObjectHandle, ObjectSpec, Runtime, Session, Stub};
use mage_rmi::{client_endpoint, drive_call, server_endpoint, Config, ObjectEnv};
use mage_sim::{Actor, Context, LinkSpec, Network, NodeId, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alloc;
use crate::class::{self, BenchState, CLASS, ECHO, INC};
use crate::record::Kind;
use crate::report::Metric;
use crate::stats::median;

/// Batches per timed probe.
const BATCHES: usize = 5;

/// The payloads a workload puts on the call path.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// One call in each block of this many carries a byte payload
    /// (`echo`) instead of an empty `inc`; `0` for none.
    pub echo_every: u64,
    /// Size of that payload.
    pub echo_bytes: usize,
    /// Size of each object's state blob (moved and checkpointed).
    pub state_bytes: usize,
}

/// One call argument of the profile.
#[derive(Clone)]
enum Arg {
    Unit,
    Bytes(Vec<u8>),
}

impl Profile {
    /// `n` call arguments drawn from the profile with `seed`.
    fn args(&self, seed: u64, n: usize) -> Vec<Arg> {
        let payload = class::payload(self.echo_bytes, 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut echo_at = 0;
        (0..n as u64)
            .map(|i| {
                if self.echo_every == 0 {
                    return Arg::Unit;
                }
                if i.is_multiple_of(self.echo_every) {
                    echo_at = i + rng.gen_range(0..self.echo_every);
                }
                if i == echo_at {
                    Arg::Bytes(payload.clone())
                } else {
                    Arg::Unit
                }
            })
            .collect()
    }

    fn state(&self) -> BenchState {
        BenchState {
            value: 0,
            blob: class::payload(self.state_bytes, 0),
        }
    }

    /// Whether the workload's per-op values are its call arguments (a
    /// call-path workload) or its object state (moves and checkpoints).
    fn state_path(&self) -> bool {
        self.echo_every == 0
    }
}

/// Per-op wall nanoseconds (median over batches) and allocations of
/// `op`, run `per_batch` times per batch after one warm-up batch.
fn time_ops(
    per_batch: usize,
    mut op: impl FnMut(usize) -> Result<(), String>,
) -> Result<(f64, f64), String> {
    for i in 0..per_batch {
        op(i)?;
    }
    let mut means = Vec::with_capacity(BATCHES);
    let allocs0 = alloc::count();
    for _ in 0..BATCHES {
        let start = Instant::now();
        for i in 0..per_batch {
            op(i)?;
        }
        means.push(start.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    let allocs = (alloc::count() - allocs0) as f64 / (BATCHES * per_batch) as f64;
    Ok((median(&means), allocs))
}

/// Codec floor: encode and decode of the workload's own values.
fn codec(profile: &Profile, seed: u64, out: &mut Vec<Metric>) -> Result<(f64, f64), String> {
    let (encode, decode) = if profile.state_path() {
        let state = profile.state();
        let bytes = mage_codec::to_bytes(&state).map_err(|e| e.to_string())?;
        let encode = time_ops(2_000, |_| {
            std::hint::black_box(mage_codec::to_bytes(&state).map_err(|e| e.to_string())?);
            Ok(())
        })?;
        let decode = time_ops(2_000, |_| {
            let back: BenchState = mage_codec::from_bytes(&bytes).map_err(|e| e.to_string())?;
            std::hint::black_box(back);
            Ok(())
        })?;
        (encode, decode)
    } else {
        let args = profile.args(seed, 1_000);
        let encoded: Vec<Vec<u8>> = args
            .iter()
            .map(|a| match a {
                Arg::Unit => mage_codec::to_bytes(&()),
                Arg::Bytes(b) => mage_codec::to_bytes(b),
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let encode = time_ops(args.len(), |i| {
            let bytes = match &args[i] {
                Arg::Unit => mage_codec::to_bytes(&()),
                Arg::Bytes(b) => mage_codec::to_bytes(b),
            };
            std::hint::black_box(bytes.map_err(|e| e.to_string())?);
            Ok(())
        })?;
        let decode = time_ops(args.len(), |i| {
            match &args[i] {
                Arg::Unit => mage_codec::from_bytes::<()>(&encoded[i]).map(|_| ()),
                Arg::Bytes(_) => mage_codec::from_bytes::<Vec<u8>>(&encoded[i])
                    .map(|v| drop(std::hint::black_box(v))),
            }
            .map_err(|e| e.to_string())
        })?;
        (encode, decode)
    };
    out.push(Metric::new("codec.encode_ns", encode.0, "ns"));
    out.push(Metric::new("codec.decode_ns", decode.0, "ns"));
    out.push(Metric::new("codec.encode_allocs", encode.1, "allocs"));
    out.push(Metric::new("codec.decode_allocs", decode.1, "allocs"));
    Ok((encode.0, decode.0))
}

/// A no-op actor that bounces every message back to its peer.
struct Bounce {
    peer: NodeId,
}

impl Actor for Bounce {
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: Bytes) {
        ctx.send(self.peer, "ping", payload);
    }
}

/// Sim floor: wall time and allocations per `World::step` of a no-op
/// ping-pong carrying the workload's largest payload.
fn sim(profile: &Profile, seed: u64, out: &mut Vec<Metric>) -> Result<f64, String> {
    let size = profile.echo_bytes.max(profile.state_bytes);
    let mut world = World::with_network(seed, Network::new(LinkSpec::ethernet_10mbps()));
    let a = world.add_node(
        "a",
        Bounce {
            peer: NodeId::from_raw(1),
        },
    );
    let _b = world.add_node("b", Bounce { peer: a });
    world.inject(a, "ping", Bytes::from(vec![0u8; size]));
    let (ns, allocs) = time_ops(200_000, |_| {
        if world.step() {
            Ok(())
        } else {
            Err("ping-pong went idle".into())
        }
    })?;
    out.push(Metric::new("sim.dispatch_ns", ns, "ns"));
    out.push(Metric::new("sim.dispatch_allocs", allocs, "allocs"));
    Ok(ns)
}

/// RMI floor: raw `drive_call` round trips carrying the workload's call
/// arguments (the same payloads as the `session.call` probe). Returns
/// (ns, allocs, deliveries) per round trip.
fn rmi(profile: &Profile, seed: u64, out: &mut Vec<Metric>) -> Result<(f64, f64, f64), String> {
    let mut world = World::with_network(seed, Network::new(LinkSpec::ethernet_10mbps()));
    let client = world.add_node("client", client_endpoint(Config::default()));
    let server = world.add_node(
        "server",
        server_endpoint(
            Config::default(),
            "echo",
            Box::new(|_m: &str, args: &[u8], _e: &mut ObjectEnv<'_>| Ok(args.to_vec())),
        ),
    );
    let payloads: Vec<Vec<u8>> = profile
        .args(seed, 1_000)
        .iter()
        .map(|a| match a {
            Arg::Unit => mage_codec::to_bytes(&()),
            Arg::Bytes(b) => mage_codec::to_bytes(b),
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let per_batch = payloads.len().max(1_000);
    let delivered0 = world.metrics().net.delivered;
    let (ns, allocs) = time_ops(per_batch, |i| {
        let args = payloads[i % payloads.len()].clone();
        match drive_call(&mut world, client, server, "echo", "echo", args) {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("rmi call failed: {e}")),
            Err(e) => Err(format!("rmi world failed: {e}")),
        }
    })?;
    let calls = ((BATCHES + 1) * per_batch) as f64;
    let delivered = (world.metrics().net.delivered - delivered0) as f64 / calls;
    out.push(Metric::new("rmi.roundtrip_ns", ns, "ns"));
    out.push(Metric::new("rmi.roundtrip_allocs", allocs, "allocs"));
    Ok((ns, allocs, delivered))
}

/// An idle three-namespace runtime for the session probes: `c` issues,
/// `s` and `t` host, the class is deployed everywhere.
struct SessionRig {
    rt: Runtime,
    c: Session,
    t: Session,
}

fn rig(profile: &Profile, seed: u64) -> Result<SessionRig, MageError> {
    let mut rt = Runtime::builder()
        .seed(seed)
        .nodes(["c", "s", "t"])
        .class(class::class())
        .build();
    for node in ["c", "s", "t"] {
        rt.deploy_class(CLASS, node)?;
    }
    let s = rt.session("s")?;
    s.create(ObjectSpec::new("p").class(CLASS).state(&profile.state()))?;
    s.create(
        ObjectSpec::new("dp")
            .class(CLASS)
            .state(&profile.state())
            .durability(Durability::Replicated { backups: 1 })
            .backup("t"),
    )?;
    let c = rt.session("c")?;
    let t = rt.session("t")?;
    Ok(SessionRig { rt, c, t })
}

/// Times `per_batch`-op batches of one session kind; also returns the
/// mean virtual latency per op in ms.
fn time_session(
    rt: &mut Runtime,
    per_batch: usize,
    mut op: impl FnMut(&mut Runtime, usize) -> Result<(), MageError>,
) -> Result<(f64, f64, f64), String> {
    let start = rt.now();
    let (ns, allocs) = time_ops(per_batch, |i| op(rt, i).map_err(|e| e.to_string()))?;
    let ops = ((BATCHES + 1) * per_batch) as f64;
    let vlat_ms = (rt.now() - start).as_micros() as f64 / 1_000.0 / ops;
    Ok((ns, allocs, vlat_ms))
}

fn bind_invoke(session: &Session, attr: &dyn MobilityAttribute) -> Result<(), MageError> {
    session.bind_invoke(attr, INC, &()).map(drop)
}

/// Session floor: one blocking op of each kind at a time. Returns the
/// `call` kind's (ns, allocs).
fn session(profile: &Profile, seed: u64, out: &mut Vec<Metric>) -> Result<(f64, f64), String> {
    let SessionRig { mut rt, c, t } = rig(profile, seed).map_err(|e| e.to_string())?;
    let rt = &mut rt;
    let stub: Stub = c
        .bind(&Rpc::new(CLASS, "p", "s"))
        .map_err(|e| e.to_string())?;
    let args = profile.args(seed, 200);
    let mut results = Vec::with_capacity(Kind::ALL.len());
    let call = time_session(rt, 200, |_, i| match &args[i % args.len()] {
        Arg::Unit => c.call(&stub, INC, &()).map(drop),
        Arg::Bytes(b) => c.call(&stub, ECHO, b).map(drop),
    })?;
    results.push((Kind::Call, call));

    let mut handle = ObjectHandle::new(
        c.bind(&Cle::new(CLASS, "dp")).map_err(|e| e.to_string())?,
        Durability::Replicated { backups: 1 },
        true,
    );
    let call_handle = time_session(rt, 200, |_, _| {
        c.call_handle(&mut handle, INC, &()).map(drop)
    })?;
    results.push((Kind::CallHandle, call_handle));

    // Moving kinds alternate between two places so every op moves.
    let targets = ["s", "t"];
    let revs: Vec<Rev> = targets.iter().map(|t| Rev::new(CLASS, "p", *t)).collect();
    results.push((
        Kind::Rev,
        time_session(rt, 50, |_, i| bind_invoke(&c, &revs[i % 2]))?,
    ));
    let grevs: Vec<Grev> = targets.iter().map(|t| Grev::new(CLASS, "p", *t)).collect();
    results.push((
        Kind::Grev,
        time_session(rt, 50, |_, i| bind_invoke(&c, &grevs[i % 2]))?,
    ));
    let cod = Cod::new(CLASS, "p");
    let movers = [&c, &t];
    results.push((
        Kind::Cod,
        time_session(rt, 50, |_, i| bind_invoke(movers[i % 2], &cod))?,
    ));
    let cle = Cle::new(CLASS, "p");
    results.push((
        Kind::Cle,
        time_session(rt, 200, |_, _| bind_invoke(&c, &cle))?,
    ));
    let agents: Vec<MobileAgent> = targets
        .iter()
        .map(|t| MobileAgent::new(CLASS, "p", *t))
        .collect();
    let agent = time_session(rt, 50, |rt, i| {
        bind_invoke(&c, &agents[i % 2])?;
        // The agent's one-way invoke lands after the bind returns.
        rt.run_until_idle()
    })?;
    results.push((Kind::Agent, agent));

    for (kind, (ns, allocs, vlat)) in &results {
        out.push(Metric::new(
            format!("session.{}.wall_ns", kind.name()),
            *ns,
            "ns",
        ));
        out.push(Metric::new(
            format!("session.{}.vlat_ms", kind.name()),
            *vlat,
            "ms",
        ));
        out.push(Metric::new(
            format!("session.{}.allocs", kind.name()),
            *allocs,
            "allocs",
        ));
    }

    // Time inside an `_async` issue alone (the call is then waited on).
    let mut issue_ns = Vec::with_capacity(BATCHES + 1);
    for _ in 0..=BATCHES {
        let mut total = 0u128;
        for _ in 0..200 {
            let start = Instant::now();
            let pending = c.call_async(&stub, INC, &()).map_err(|e| e.to_string())?;
            total += start.elapsed().as_nanos();
            pending.wait().map_err(|e| e.to_string())?;
        }
        issue_ns.push(total as f64 / 200.0);
    }
    out.push(Metric::new(
        "session.issue_ns",
        median(&issue_ns[1..]),
        "ns",
    ));
    rt.run_until_idle().map_err(|e| e.to_string())?;
    let (ns, allocs, _) = results[0].1;
    Ok((ns, allocs))
}

/// Runs every floor probe and the adjacent-layer differences.
///
/// # Errors
///
/// Any probe operation that fails.
pub fn run(profile: &Profile, seed: u64) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let (encode_ns, decode_ns) = codec(profile, seed, &mut out)?;
    let dispatch_ns = sim(profile, seed, &mut out)?;
    let (rmi_ns, rmi_allocs, rmi_delivered) = rmi(profile, seed, &mut out)?;
    let (call_ns, call_allocs) = session(profile, seed, &mut out)?;
    out.push(
        Metric::new(
            "diff.session_minus_rmi.allocs",
            call_allocs - rmi_allocs,
            "allocs",
        )
        .note("session.call.allocs - rmi.roundtrip_allocs; target <= 3"),
    );
    out.push(Metric::new(
        "diff.session_minus_rmi.ns",
        call_ns - rmi_ns,
        "ns",
    ));
    out.push(
        Metric::new(
            "diff.rmi_minus_sim.ns",
            rmi_ns - dispatch_ns * rmi_delivered,
            "ns",
        )
        .note(format!("{rmi_delivered:.2} deliveries per round trip")),
    );
    out.push(
        Metric::new(
            "diff.rmi_minus_codec.ns",
            rmi_ns - encode_ns - decode_ns,
            "ns",
        )
        .note("one encode and one decode of the payload"),
    );
    Ok(out)
}
