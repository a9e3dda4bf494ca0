//! `durable_faults`: the durable, crash-recovering call path.
//!
//! Five namespaces. `h0` is the protected backup home and never crashes.
//! Four `Durability::Replicated`, identity-pinned objects live on
//! `h1..h4`. Each of four client sessions (on `h1..h4`) holds its own
//! handles and drives blocking `call_handle` increments; every completed
//! invocation also writes a checkpoint to `h0`. A seeded adversary
//! crashes the current host of an object between ops and restarts it
//! later; ops drawn for a crashed session are skipped, not counted. After
//! a restore (the object now lives on `h0`) the benchmark moves it back onto
//! a live crashable host with REV, so checkpoints stay remote.

use mage_core::attribute::{Cle, Rev};
use mage_core::{Durability, ObjectHandle, ObjectSpec, Runtime, Session};
use mage_sim::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{Digest, Workload};
use crate::class::{self, BenchState, CLASS, GET, INC};
use crate::probes::Profile;
use crate::record::{Kind, Outcome, Recorder};

const HOSTS: usize = 5;
/// Crashable hosts `h1..h4`: one object born on each, one session on each.
const CRASHABLE: usize = HOSTS - 1;
const OBJECTS: usize = CRASHABLE;
/// One crash attempt per block of this many drawn ops, at a seeded
/// position in the block (about 8 per mille, at a steady rate).
const CRASH_BLOCK: u64 = 125;
/// Ops after which a crashed host restarts.
const RESTART_AFTER: std::ops::Range<u64> = 10..40;
const WARMUP_OPS: u64 = 2_000;
const DURABLE: Durability = Durability::Replicated { backups: 1 };

/// The `durable_faults` workload state.
pub struct DurableFaults {
    rt: Runtime,
    /// Sessions on `h1..h4` (index `s` lives on host `s + 1`).
    sessions: Vec<Session>,
    /// `handles[session][object]`: never shared across sessions.
    handles: Vec<Vec<ObjectHandle>>,
    /// REV attributes `rev[object][host]` that move an object back off
    /// the backup home.
    rev: Vec<Vec<Rev>>,
    rng: StdRng,
    /// Down hosts with the op count at which each restarts.
    down: Vec<(usize, u64)>,
    /// Where each object was last seen (host index).
    host: [usize; OBJECTS],
    /// Increments issued per object.
    issued: [i64; OBJECTS],
    /// Ops drawn for a crashed session (not counted).
    skipped: u64,
    /// Ops that stalled over the whole run.
    stalls: u64,
    crashes: u64,
    moves_back: u64,
    /// Ops drawn so far (drives the crash and restart schedule).
    draws: u64,
    /// The draw before which this block's crash is attempted.
    crash_at: u64,
    digest: Digest,
    names: Vec<String>,
}

fn object_name(i: usize) -> String {
    format!("d{i}")
}

impl DurableFaults {
    fn is_down(&self, host: usize) -> bool {
        self.down.iter().any(|&(h, _)| h == host)
    }

    /// Restarts due hosts, then maybe crashes the current host of a
    /// random object.
    fn adversary(&mut self) -> Result<(), String> {
        let draws = self.draws;
        while let Some(pos) = self.down.iter().position(|&(_, at)| at <= draws) {
            let (host, _) = self.down.swap_remove(pos);
            self.rt
                .restart(&self.names[host])
                .map_err(|e| e.to_string())?;
            self.digest.fold(200 + host as u64);
        }
        if draws.is_multiple_of(CRASH_BLOCK) {
            self.crash_at = draws + self.rng.gen_range(0..CRASH_BLOCK);
        }
        if draws == self.crash_at {
            let obj = self.rng.gen_range(0..OBJECTS);
            let victim = self.host[obj];
            let restart_at = draws + self.rng.gen_range(RESTART_AFTER);
            if victim != 0 && !self.is_down(victim) && self.down.len() < 2 {
                self.rt
                    .crash(&self.names[victim])
                    .map_err(|e| e.to_string())?;
                self.down.push((victim, restart_at));
                self.crashes += 1;
                self.digest.fold(100 + victim as u64);
            }
        }
        Ok(())
    }

    fn host_index(&self, node: NodeId) -> usize {
        node.as_raw() as usize
    }

    /// One drawn op: a blocking `call_handle` increment, plus the REV
    /// back off `h0` when it was served by a restored object.
    fn step_op(&mut self, rec: &mut Recorder) -> Result<(), String> {
        // Every other event runs inside the blocking calls; processing one
        // pending event here (usually checkpoint traffic) gives the traced
        // run's `sim.step_ns` samples on this workload too.
        rec.step(&mut self.rt);
        self.adversary()?;
        self.draws += 1;
        let session = self.rng.gen_range(0..CRASHABLE);
        let obj = self.rng.gen_range(0..OBJECTS);
        let back_to = 1 + self.rng.gen_range(0..CRASHABLE);
        self.digest.fold((session * OBJECTS + obj) as u64);
        if self.is_down(session + 1) {
            self.skipped += 1;
            return Ok(());
        }
        let op = rec.begin();
        let issued_at = self.rt.now();
        self.issued[obj] += 1;
        let result = self.sessions[session].call_handle(&mut self.handles[session][obj], INC, &());
        let wall = rec.issued();
        let outcome = Outcome::of(&result);
        let now = self.rt.now();
        rec.done(op, Kind::CallHandle, outcome, issued_at, now, wall);
        match result {
            Ok(_) => {
                let at = self.host_index(self.handles[session][obj].location());
                self.host[obj] = at;
                if at == 0 && !self.is_down(back_to) {
                    self.move_back(session, obj, back_to, rec);
                }
            }
            Err(_) => {
                if outcome == Outcome::Stall {
                    self.stalls += 1;
                }
                // A handle whose call failed outright is rebuilt from a
                // fresh bind, as a client would.
                if let Ok(stub) = self.sessions[session].bind(&Cle::new(CLASS, object_name(obj))) {
                    self.handles[session][obj] = ObjectHandle::new(stub, DURABLE, true);
                }
            }
        }
        Ok(())
    }

    fn move_back(&mut self, session: usize, obj: usize, to: usize, rec: &mut Recorder) {
        let op = rec.begin();
        let issued_at = self.rt.now();
        let result = self.sessions[session].bind(&self.rev[obj][to]);
        let wall = rec.issued();
        let outcome = Outcome::of(&result);
        if outcome == Outcome::Stall {
            self.stalls += 1;
        }
        if result.is_ok() {
            self.host[obj] = to;
            self.moves_back += 1;
        }
        let now = self.rt.now();
        rec.done(op, Kind::Rev, outcome, issued_at, now, wall);
    }
}

impl Workload for DurableFaults {
    const REP_OPS: u64 = 40_000;
    const PROFILE: Profile = Profile {
        echo_every: 0,
        echo_bytes: 0,
        state_bytes: 0,
    };

    fn setup(seed: u64) -> Result<Self, String> {
        let names: Vec<String> = (0..HOSTS).map(|i| format!("h{i}")).collect();
        let mut rt = Runtime::builder()
            .seed(seed)
            .nodes(names.iter().cloned())
            .class(class::class())
            .build();
        rt.deploy_class(CLASS, "h0").map_err(|e| e.to_string())?;
        let home = rt.session("h0").map_err(|e| e.to_string())?;
        // Born on h0, so h0 is each object's origin server as well as its
        // backup home; then moved out to its crashable host.
        for obj in 0..OBJECTS {
            home.create(
                ObjectSpec::new(object_name(obj))
                    .class(CLASS)
                    .state(&BenchState::default())
                    .durability(DURABLE)
                    .backup("h0")
                    .pinned(true),
            )
            .map_err(|e| e.to_string())?;
            home.bind(&Rev::new(CLASS, object_name(obj), names[obj + 1].clone()))
                .map_err(|e| e.to_string())?;
        }
        let mut sessions = Vec::with_capacity(CRASHABLE);
        let mut handles = Vec::with_capacity(CRASHABLE);
        for name in &names[1..] {
            let session = rt.session(name).map_err(|e| e.to_string())?;
            let row = (0..OBJECTS)
                .map(|obj| {
                    session
                        .bind(&Cle::new(CLASS, object_name(obj)))
                        .map(|stub| ObjectHandle::new(stub, DURABLE, true))
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            sessions.push(session);
            handles.push(row);
        }
        let rev = (0..OBJECTS)
            .map(|obj| {
                names
                    .iter()
                    .map(|to| Rev::new(CLASS, object_name(obj), to.clone()))
                    .collect()
            })
            .collect();
        let mut workload = DurableFaults {
            rt,
            sessions,
            handles,
            rev,
            rng: StdRng::seed_from_u64(seed),
            down: Vec::with_capacity(2),
            host: std::array::from_fn(|obj| obj + 1),
            issued: [0; OBJECTS],
            skipped: 0,
            stalls: 0,
            crashes: 0,
            moves_back: 0,
            draws: 0,
            crash_at: 0,
            digest: Digest::default(),
            names,
        };
        workload.drive(WARMUP_OPS, &mut Recorder::default())?;
        Ok(workload)
    }

    fn drive(&mut self, ops: u64, rec: &mut Recorder) -> Result<(), String> {
        let target = rec.completed + ops;
        while rec.completed < target {
            self.step_op(rec)?;
        }
        Ok(())
    }

    fn finish(&mut self, _rec: &mut Recorder) -> Result<String, String> {
        for (host, _) in std::mem::take(&mut self.down) {
            self.rt
                .restart(&self.names[host])
                .map_err(|e| e.to_string())?;
        }
        self.rt.run_until_idle().map_err(|e| e.to_string())?;
        if self.stalls > 0 {
            return Err(format!("{} ops stalled", self.stalls));
        }
        for obj in 0..OBJECTS {
            let value = self.sessions[0]
                .call_handle(&mut self.handles[0][obj], GET, &())
                .map_err(|e| format!("d{obj}: final read failed: {e}"))?;
            if value > self.issued[obj] {
                return Err(format!(
                    "d{obj}: counter {value} exceeds {} issued increments",
                    self.issued[obj]
                ));
            }
        }
        Ok(format!(
            "no counter exceeds its issued increments; no op stalled ({} crashes, {} moves back off h0, {} ops skipped on crashed sessions)",
            self.crashes, self.moves_back, self.skipped
        ))
    }

    fn runtime(&mut self) -> &mut Runtime {
        &mut self.rt
    }

    fn schedule_digest(&self) -> u64 {
        self.digest.0
    }
}
