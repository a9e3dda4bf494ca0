//! `migrate_mix`: the paper's model mix under concurrent movers.
//!
//! Six namespaces and eight objects with 2 KiB of state, their class
//! deployed at `h0` only. Every namespace's session keeps one
//! `bind_invoke_async` in flight (six concurrent). Each op draws REV,
//! GREV, COD, CLE or a mobile agent over a random target and a random
//! object, and a quarter of REV/GREV binds are guarded by §4.4 locks.
//!
//! At most one op is in flight per object. Concurrent binds of one
//! object end in typed `in transit`/`NotFound`/`Unreachable` errors (the
//! last with no fault injected), after which the object can stay
//! unfindable for good. Session caches still go stale, since other
//! sessions keep moving the objects, but lock queues never form.

use mage_core::attribute::{Cle, Cod, Grev, MobileAgent, MobilityAttribute, Rev};
use mage_core::{ObjectSpec, Pending, Runtime, Session, Stub};
use mage_sim::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{Digest, Workload};
use crate::class::{self, BenchState, CLASS, GET, INC};
use crate::probes::Profile;
use crate::record::{Kind, Outcome, Recorder};

const HOSTS: usize = 6;
const OBJECTS: usize = 8;
/// Size of each object's state blob.
pub const STATE_BYTES: usize = 2_048;
/// Share of REV/GREV binds that are guarded.
const GUARD_PERCENT: u32 = 25;
const WARMUP_OPS: u64 = 300;

struct Slot {
    op: u64,
    kind: Kind,
    obj: usize,
    issued_at: SimTime,
    issue_wall_ns: u64,
    pending: Pending<(Stub, Option<i64>)>,
}

/// Every attribute an op can draw, built once so issuing allocates
/// nothing on the benchmark's side.
struct Attributes {
    /// `rev[obj][target][guarded]`, likewise `grev`.
    rev: Vec<Vec<[Rev; 2]>>,
    grev: Vec<Vec<[Grev; 2]>>,
    /// `agent[obj][target]`.
    agent: Vec<Vec<MobileAgent>>,
    cod: Vec<Cod>,
    cle: Vec<Cle>,
}

impl Attributes {
    fn new(names: &[String]) -> Self {
        let objects: Vec<String> = (0..OBJECTS).map(object_name).collect();
        Attributes {
            rev: objects
                .iter()
                .map(|o| {
                    names
                        .iter()
                        .map(|t| {
                            [
                                Rev::new(CLASS, o.clone(), t.clone()),
                                Rev::new(CLASS, o.clone(), t.clone()).guarded(),
                            ]
                        })
                        .collect()
                })
                .collect(),
            grev: objects
                .iter()
                .map(|o| {
                    names
                        .iter()
                        .map(|t| {
                            [
                                Grev::new(CLASS, o.clone(), t.clone()),
                                Grev::new(CLASS, o.clone(), t.clone()).guarded(),
                            ]
                        })
                        .collect()
                })
                .collect(),
            agent: objects
                .iter()
                .map(|o| {
                    names
                        .iter()
                        .map(|t| MobileAgent::new(CLASS, o.clone(), t.clone()))
                        .collect()
                })
                .collect(),
            cod: objects.iter().map(|o| Cod::new(CLASS, o.clone())).collect(),
            cle: objects.iter().map(|o| Cle::new(CLASS, o.clone())).collect(),
        }
    }
}

/// The `migrate_mix` workload state.
pub struct MigrateMix {
    rt: Runtime,
    sessions: Vec<Session>,
    attrs: Attributes,
    slots: Vec<Option<Slot>>,
    rng: StdRng,
    /// Acknowledged request-reply increments per object.
    acked: [i64; OBJECTS],
    /// Agent launches issued per object (one-way increments).
    agents: [i64; OBJECTS],
    violation: Option<String>,
    digest: Digest,
}

fn object_name(i: usize) -> String {
    format!("m{i}")
}

impl MigrateMix {
    fn issue(&mut self, session: usize, rec: &mut Recorder) {
        // Uniform over the objects no other session has an op in flight on.
        let busy = |o: usize| self.slots.iter().flatten().any(|s| s.obj == o);
        let free = (0..OBJECTS).filter(|&o| !busy(o)).count();
        let nth = self.rng.gen_range(0..free);
        let obj = (0..OBJECTS)
            .filter(|&o| !busy(o))
            .nth(nth)
            .expect("nth < free");
        let target = self.rng.gen_range(0..HOSTS);
        let guard = usize::from(self.rng.gen_range(0..100u32) < GUARD_PERCENT);
        let (kind, attr): (Kind, &dyn MobilityAttribute) = match self.rng.gen_range(0..5u32) {
            0 => (Kind::Rev, &self.attrs.rev[obj][target][guard]),
            1 => (Kind::Grev, &self.attrs.grev[obj][target][guard]),
            2 => (Kind::Cod, &self.attrs.cod[obj]),
            3 => (Kind::Cle, &self.attrs.cle[obj]),
            _ => (Kind::Agent, &self.attrs.agent[obj][target]),
        };
        self.digest
            .fold(((kind as u64 * 8 + obj as u64) * 8 + target as u64) * 2 + guard as u64);
        let op = rec.begin();
        let issued_at = self.rt.now();
        let pending = self.sessions[session].bind_invoke_async(attr, INC, &());
        let issue_wall_ns = rec.issued();
        match pending {
            Ok(pending) => {
                if kind == Kind::Agent {
                    self.agents[obj] += 1;
                }
                self.slots[session] = Some(Slot {
                    op,
                    kind,
                    obj,
                    issued_at,
                    issue_wall_ns,
                    pending,
                });
            }
            Err(err) => {
                let outcome = Outcome::of::<()>(&Err(err));
                let now = self.rt.now();
                rec.done(op, kind, outcome, issued_at, now, issue_wall_ns);
            }
        }
    }

    /// Collects every completed op.
    fn poll(&mut self, rec: &mut Recorder) {
        let mut done: u32 = 0;
        {
            let world = self.rt.world();
            for (i, slot) in self.slots.iter().enumerate() {
                if let Some(slot) = slot {
                    if world.op_result(slot.pending.op_id()).is_some() {
                        done |= 1 << i;
                    }
                }
            }
        }
        while done != 0 {
            let i = done.trailing_zeros() as usize;
            done &= done - 1;
            let slot = self.slots[i].take().expect("completed slot is occupied");
            let result = slot.pending.wait();
            match &result {
                Ok((_, Some(value))) => {
                    self.acked[slot.obj] += 1;
                    if *value < 1 && self.violation.is_none() {
                        self.violation = Some(format!("m{}: inc returned {value}", slot.obj));
                    }
                }
                Ok((_, None)) if slot.kind != Kind::Agent && self.violation.is_none() => {
                    self.violation = Some(format!(
                        "m{}: {} returned no result",
                        slot.obj,
                        slot.kind.name()
                    ));
                }
                _ => {}
            }
            let now = self.rt.now();
            rec.done(
                slot.op,
                slot.kind,
                Outcome::of(&result),
                slot.issued_at,
                now,
                slot.issue_wall_ns,
            );
        }
    }
}

impl Workload for MigrateMix {
    const REP_OPS: u64 = 4_000;
    const PROFILE: Profile = Profile {
        echo_every: 0,
        echo_bytes: 0,
        state_bytes: STATE_BYTES,
    };

    fn setup(seed: u64) -> Result<Self, String> {
        let names: Vec<String> = (0..HOSTS).map(|i| format!("h{i}")).collect();
        let mut rt = Runtime::builder()
            .seed(seed)
            .nodes(names.iter().cloned())
            .class(class::class())
            .build();
        rt.deploy_class(CLASS, "h0").map_err(|e| e.to_string())?;
        let sessions = names
            .iter()
            .map(|name| rt.session(name))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        for i in 0..OBJECTS {
            let state = BenchState {
                value: 0,
                blob: class::payload(STATE_BYTES, i as u64),
            };
            sessions[0]
                .create(ObjectSpec::new(object_name(i)).class(CLASS).state(&state))
                .map_err(|e| e.to_string())?;
        }
        let mut workload = MigrateMix {
            rt,
            sessions,
            attrs: Attributes::new(&names),
            slots: (0..HOSTS).map(|_| None).collect(),
            rng: StdRng::seed_from_u64(seed),
            acked: [0; OBJECTS],
            agents: [0; OBJECTS],
            violation: None,
            digest: Digest::default(),
        };
        workload.drive(WARMUP_OPS, &mut Recorder::default())?;
        Ok(workload)
    }

    fn drive(&mut self, ops: u64, rec: &mut Recorder) -> Result<(), String> {
        let target = rec.completed + ops;
        while rec.completed < target {
            let before = rec.completed;
            // An issue that fails at once completes without taking a slot;
            // the next round issues into that slot again.
            for slot in 0..self.slots.len() {
                if self.slots[slot].is_none() {
                    self.issue(slot, rec);
                }
            }
            self.poll(rec);
            if rec.completed == before && !rec.step(&mut self.rt) {
                return Err("world went idle with binds in flight".into());
            }
        }
        Ok(())
    }

    fn finish(&mut self, rec: &mut Recorder) -> Result<String, String> {
        while self.slots.iter().any(Option::is_some) {
            let before = rec.completed;
            self.poll(rec);
            if rec.completed == before && !rec.step(&mut self.rt) {
                return Err("world went idle with binds in flight".into());
            }
        }
        self.rt.run_until_idle().map_err(|e| e.to_string())?;
        if let Some(violation) = self.violation.take() {
            return Err(violation);
        }
        for obj in 0..OBJECTS {
            let (_, value) = self.sessions[0]
                .bind_invoke(&self.attrs.cle[obj], GET, &())
                .map_err(|e| e.to_string())?;
            let value = value.ok_or("CLE get returned no result")?;
            let (low, high) = (self.acked[obj], self.acked[obj] + self.agents[obj]);
            if value < low || value > high {
                return Err(format!(
                    "m{obj}: counter {value} outside [{low}, {high}] (acknowledged, +agent launches)"
                ));
            }
        }
        let acked: i64 = self.acked.iter().sum();
        let agents: i64 = self.agents.iter().sum();
        Ok(format!(
            "every counter within [acknowledged, acknowledged + agent launches] ({acked} acknowledged, {agents} agent launches)"
        ))
    }

    fn runtime(&mut self) -> &mut Runtime {
        &mut self.rt
    }

    fn schedule_digest(&self) -> u64 {
        self.digest.0
    }
}
