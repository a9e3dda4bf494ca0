//! `call_steady`: the per-message fast path.
//!
//! Four namespaces. Three client sessions each keep eight `call_async`
//! invocations in flight (closed loop, depth 8) against four resident
//! objects on the fourth namespace, with locations already cached. Most
//! calls are an empty `inc`; one in a hundred echoes a payload of 3 to
//! 5 KiB (4 KiB on average).

use mage_core::attribute::Rpc;
use mage_core::{ObjectSpec, Pending, Runtime, Session, Stub};
use mage_sim::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{Digest, Workload};
use crate::class::{self, BenchState, CLASS, ECHO, GET, INC};
use crate::probes::Profile;
use crate::record::{Kind, Outcome, Recorder};

const CLIENTS: usize = 3;
const DEPTH: usize = 8;
const OBJECTS: usize = 4;
const SLOTS: usize = CLIENTS * DEPTH;
/// One call in each block of this many echoes a payload instead of
/// incrementing, at a seeded position in the block. An echo costs about
/// fifty increments of wall time, so at 1% the two halves of the work
/// are of similar size.
pub const ECHO_EVERY: u64 = 100;
/// Mean size of the echo payload; sizes are drawn from
/// `ECHO_BYTES ± 1 KiB` in steps of 32 bytes.
pub const ECHO_BYTES: usize = 4_096;
const ECHO_SIZES: usize = 65;
const WARMUP_OPS: u64 = 2_000;
const SERVER: &str = "server";

enum Call {
    Inc(Pending<i64>),
    /// The echo and the index of the payload it sent.
    Echo(Pending<Vec<u8>>, usize),
}

struct Slot {
    op: u64,
    obj: usize,
    issued_at: SimTime,
    issue_wall_ns: u64,
    call: Call,
}

/// The `call_steady` workload state.
pub struct CallSteady {
    rt: Runtime,
    sessions: Vec<Session>,
    /// `stubs[session][object]`.
    stubs: Vec<Vec<Stub>>,
    slots: Vec<Option<Slot>>,
    rng: StdRng,
    /// Echo payloads, one per size.
    payloads: Vec<Vec<u8>>,
    /// Acknowledged increments per object.
    acked: [i64; OBJECTS],
    /// Sum and maximum of the `inc` results per object: with `acked`,
    /// they show the results are exactly `1..=acked`.
    sum: [i128; OBJECTS],
    max: [i64; OBJECTS],
    /// Last `inc` result per (session, object): each client's stream of
    /// results must strictly increase.
    last: [[i64; OBJECTS]; CLIENTS],
    violation: Option<String>,
    /// Calls issued so far, and the one in the current block that echoes.
    issued: u64,
    echo_at: u64,
    digest: Digest,
}

fn object_name(i: usize) -> String {
    format!("obj{i}")
}

impl CallSteady {
    fn issue(&mut self, slot: usize, rec: &mut Recorder) {
        let session = slot / DEPTH;
        if self.issued.is_multiple_of(ECHO_EVERY) {
            self.echo_at = self.issued + self.rng.gen_range(0..ECHO_EVERY);
        }
        let echo = self.issued == self.echo_at;
        self.issued += 1;
        let obj = self.rng.gen_range(0..OBJECTS);
        self.digest
            .fold((session * OBJECTS + obj) as u64 * 2 + u64::from(echo));
        let (client, stub) = (&self.sessions[session], &self.stubs[session][obj]);
        let op = rec.begin();
        let issued_at = self.rt.now();
        let call = if echo {
            let size = self.rng.gen_range(0..ECHO_SIZES);
            client
                .call_async(stub, ECHO, &self.payloads[size])
                .map(|p| Call::Echo(p, size))
        } else {
            client.call_async(stub, INC, &()).map(Call::Inc)
        };
        let issue_wall_ns = rec.issued();
        match call {
            Ok(call) => {
                self.slots[slot] = Some(Slot {
                    op,
                    obj,
                    issued_at,
                    issue_wall_ns,
                    call,
                });
            }
            Err(err) => {
                let outcome = Outcome::of::<()>(&Err(err));
                rec.done(op, Kind::Call, outcome, issued_at, issued_at, issue_wall_ns);
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
                    let op = match &slot.call {
                        Call::Inc(p) => p.op_id(),
                        Call::Echo(p, _) => p.op_id(),
                    };
                    if world.op_result(op).is_some() {
                        done |= 1 << i;
                    }
                }
            }
        }
        while done != 0 {
            let i = done.trailing_zeros() as usize;
            done &= done - 1;
            let slot = self.slots[i].take().expect("completed slot is occupied");
            let outcome = match slot.call {
                Call::Inc(p) => {
                    let result = p.wait();
                    if let Ok(value) = result {
                        let (obj, last) = (slot.obj, &mut self.last[i / DEPTH][slot.obj]);
                        if value <= *last && self.violation.is_none() {
                            self.violation = Some(format!(
                                "obj{obj}: session {} got {value} after {last}",
                                i / DEPTH
                            ));
                        }
                        *last = value;
                        self.acked[obj] += 1;
                        self.sum[obj] += i128::from(value);
                        self.max[obj] = self.max[obj].max(value);
                    }
                    Outcome::of(&result)
                }
                Call::Echo(p, size) => {
                    let result = p.wait();
                    if let Ok(bytes) = &result {
                        if *bytes != self.payloads[size] && self.violation.is_none() {
                            self.violation = Some(format!("obj{}: echo corrupted", slot.obj));
                        }
                    }
                    Outcome::of(&result)
                }
            };
            let now = self.rt.now();
            rec.done(
                slot.op,
                Kind::Call,
                outcome,
                slot.issued_at,
                now,
                slot.issue_wall_ns,
            );
        }
    }
}

impl Workload for CallSteady {
    const REP_OPS: u64 = 30_000;
    const PROFILE: Profile = Profile {
        echo_every: ECHO_EVERY,
        echo_bytes: ECHO_BYTES,
        state_bytes: 0,
    };

    fn setup(seed: u64) -> Result<Self, String> {
        let mut names: Vec<String> = (0..CLIENTS).map(|i| format!("client{i}")).collect();
        names.push(SERVER.to_owned());
        let mut rt = Runtime::builder()
            .seed(seed)
            .nodes(names.iter().cloned())
            .class(class::class())
            .build();
        rt.deploy_class(CLASS, SERVER).map_err(|e| e.to_string())?;
        let server = rt.session(SERVER).map_err(|e| e.to_string())?;
        for i in 0..OBJECTS {
            server
                .create(
                    ObjectSpec::new(object_name(i))
                        .class(CLASS)
                        .state(&BenchState::default()),
                )
                .map_err(|e| e.to_string())?;
        }
        let mut sessions = Vec::with_capacity(CLIENTS);
        let mut stubs = Vec::with_capacity(CLIENTS);
        for name in &names[..CLIENTS] {
            let session = rt.session(name).map_err(|e| e.to_string())?;
            let row = (0..OBJECTS)
                .map(|i| session.bind(&Rpc::new(CLASS, object_name(i), SERVER)))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            sessions.push(session);
            stubs.push(row);
        }
        let mut workload = CallSteady {
            rt,
            sessions,
            stubs,
            slots: (0..SLOTS).map(|_| None).collect(),
            rng: StdRng::seed_from_u64(seed),
            payloads: (0..ECHO_SIZES)
                .map(|i| class::payload(ECHO_BYTES - 1_024 + 32 * i, 0))
                .collect(),
            acked: [0; OBJECTS],
            sum: [0; OBJECTS],
            max: [0; OBJECTS],
            last: [[0; OBJECTS]; CLIENTS],
            violation: None,
            issued: 0,
            echo_at: 0,
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
                return Err("world went idle with calls in flight".into());
            }
        }
        Ok(())
    }

    fn finish(&mut self, rec: &mut Recorder) -> Result<String, String> {
        while self.slots.iter().any(Option::is_some) {
            let before = rec.completed;
            self.poll(rec);
            if rec.completed == before && !rec.step(&mut self.rt) {
                return Err("world went idle with calls in flight".into());
            }
        }
        self.rt.run_until_idle().map_err(|e| e.to_string())?;
        if let Some(violation) = self.violation.take() {
            return Err(violation);
        }
        for obj in 0..OBJECTS {
            let value = self.sessions[0]
                .call(&self.stubs[0][obj], GET, &())
                .map_err(|e| e.to_string())?;
            let n = self.acked[obj];
            if value != n {
                return Err(format!(
                    "obj{obj}: counter {value} != {n} acknowledged increments"
                ));
            }
            if self.max[obj] != n || self.sum[obj] != i128::from(n) * i128::from(n + 1) / 2 {
                return Err(format!("obj{obj}: inc results are not exactly 1..={n}"));
            }
        }
        let total: i64 = self.acked.iter().sum();
        Ok(format!(
            "counters equal {total} acknowledged increments; inc results are 1..=n per object and strictly increasing per client; echoes intact"
        ))
    }

    fn runtime(&mut self) -> &mut Runtime {
        &mut self.rt
    }

    fn schedule_digest(&self) -> u64 {
        self.digest.0
    }
}
