//! Per-op bookkeeping shared by every workload: attempt and failure
//! counts, virtual-latency samples, and — in a traced run — one span per
//! `Session` operation plus the wall time spent in `Runtime::step`.

use std::time::Instant;

use mage_core::{MageError, Runtime};
use mage_sim::SimTime;

/// The `Session` operation kinds the workloads issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `call_async` / `call` through a stub.
    Call,
    /// `call_handle` through a policy handle.
    CallHandle,
    /// `bind_invoke` with a REV attribute.
    Rev,
    /// `bind_invoke` with a GREV attribute.
    Grev,
    /// `bind_invoke` with a COD attribute.
    Cod,
    /// `bind_invoke` with a CLE attribute.
    Cle,
    /// `bind_invoke` with a mobile-agent attribute (one-way).
    Agent,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 7] = [
        Kind::Call,
        Kind::CallHandle,
        Kind::Rev,
        Kind::Grev,
        Kind::Cod,
        Kind::Cle,
        Kind::Agent,
    ];

    /// The kind's metric name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Call => "call",
            Kind::CallHandle => "call_handle",
            Kind::Rev => "rev",
            Kind::Grev => "grev",
            Kind::Cod => "cod",
            Kind::Cle => "cle",
            Kind::Agent => "agent",
        }
    }
}

/// How an op ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed successfully.
    Ok,
    /// Refused by the coercion matrix (Table 2's exception cells).
    Coercion,
    /// The simulation stalled or ran out of event budget.
    Stall,
    /// Any other typed error.
    Error,
}

impl Outcome {
    /// Classifies an op result.
    pub fn of<T>(result: &Result<T, MageError>) -> Self {
        match result {
            Ok(_) => Outcome::Ok,
            Err(MageError::Coercion { .. } | MageError::NotApplicable { .. }) => Outcome::Coercion,
            Err(MageError::Sim(_)) => Outcome::Stall,
            Err(_) => Outcome::Error,
        }
    }

    /// The outcome's name in span output.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Coercion => "coercion",
            Outcome::Stall => "stall",
            Outcome::Error => "error",
        }
    }
}

/// One traced `Session` operation.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Benchmark-assigned op id (issue order).
    pub op: u64,
    /// Operation kind.
    pub kind: Kind,
    /// How it ended.
    pub outcome: Outcome,
    /// Virtual time at issue, in microseconds.
    pub issue_us: u64,
    /// Virtual time at completion, in microseconds.
    pub done_us: u64,
    /// Wall time spent inside the issuing `Session` call, in nanoseconds
    /// (the whole op for blocking calls).
    pub issue_wall_ns: u64,
}

/// Bookkeeping for one phase of a run.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Ops completed (successfully or not).
    pub completed: u64,
    /// Ops that ended in a typed error or a stall.
    pub failed: u64,
    /// Ops refused by coercion (also counted in `failed`).
    pub coercion_refusals: u64,
    /// Virtual latency of each completed op, in ms, while sampling.
    pub vlat_ms: Vec<f64>,
    sampling: bool,
    /// Spans, when tracing.
    pub spans: Option<Vec<Span>>,
    /// Whether `Runtime::step` calls are timed.
    time_steps: bool,
    /// Wall time inside `Runtime::step` calls the benchmark made, and
    /// their number (when timing steps).
    pub step_wall_ns: u64,
    /// See `step_wall_ns`.
    pub steps: u64,
    next_op: u64,
    /// Wall-clock start of the issuing call in progress (tracing only).
    issue_start: Option<Instant>,
}

impl Recorder {
    /// A recorder that keeps latency samples, pre-sized for `capacity`
    /// ops so sampling makes no allocations inside the measured phase.
    pub fn sampling(capacity: usize) -> Self {
        Recorder {
            vlat_ms: Vec::with_capacity(capacity),
            sampling: true,
            ..Recorder::default()
        }
    }

    /// A recorder that only times `Runtime::step` calls.
    pub fn timing_steps() -> Self {
        Recorder {
            time_steps: true,
            ..Recorder::default()
        }
    }

    /// A recorder that keeps samples and spans and times steps.
    pub fn traced(capacity: usize) -> Self {
        Recorder {
            spans: Some(Vec::with_capacity(capacity)),
            time_steps: true,
            ..Recorder::sampling(capacity)
        }
    }

    /// Stops collecting latency samples.
    pub fn stop_sampling(&mut self) {
        self.sampling = false;
    }

    /// Whether spans are being recorded.
    pub fn tracing(&self) -> bool {
        self.spans.is_some()
    }

    /// Marks the start of an op's issue; returns its op id.
    pub fn begin(&mut self) -> u64 {
        let op = self.next_op;
        self.next_op += 1;
        if self.tracing() {
            self.issue_start = Some(Instant::now());
        }
        op
    }

    /// Marks the end of the issuing call begun by [`begin`]; returns the
    /// wall nanoseconds it took (0 when not tracing).
    ///
    /// [`begin`]: Recorder::begin
    pub fn issued(&mut self) -> u64 {
        self.issue_start
            .take()
            .map_or(0, |start| start.elapsed().as_nanos() as u64)
    }

    /// Records a completed op.
    pub fn done(
        &mut self,
        op: u64,
        kind: Kind,
        outcome: Outcome,
        issued_at: SimTime,
        now: SimTime,
        issue_wall_ns: u64,
    ) {
        self.completed += 1;
        if outcome != Outcome::Ok {
            self.failed += 1;
        }
        if outcome == Outcome::Coercion {
            self.coercion_refusals += 1;
        }
        if self.sampling {
            self.vlat_ms
                .push((now - issued_at).as_micros() as f64 / 1_000.0);
        }
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                op,
                kind,
                outcome,
                issue_us: issued_at.as_micros(),
                done_us: now.as_micros(),
                issue_wall_ns,
            });
        }
    }

    /// Processes one world event, timing it when asked to. Returns
    /// `false` when the world is idle.
    pub fn step(&mut self, rt: &mut Runtime) -> bool {
        if self.time_steps {
            let start = Instant::now();
            let more = rt.step();
            self.step_wall_ns += start.elapsed().as_nanos() as u64;
            self.steps += 1;
            more
        } else {
            rt.step()
        }
    }
}
