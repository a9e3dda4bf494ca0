//! One benchmark run of one workload: the untraced end-to-end run, or
//! the separate traced run that gives the per-layer metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use mage_core::Runtime;
use mage_sim::{NetCounters, TraceEvent, TraceMode};

use crate::alloc;
use crate::calib::Kernel;
use crate::probes;
use crate::record::{Kind, Outcome, Recorder, Span};
use crate::report::Metric;
use crate::stats::{mean, median, percentile_sorted, ratio};
use crate::workloads::Workload;

/// Fresh set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Leading repetitions whose ops give the deterministic metrics.
pub const DET_REPS: u64 = 5;
/// Pieces each repetition is driven in; the calibration kernel runs
/// after each piece, so it samples the same stretch of time as the work.
const PIECES: u64 = 8;

/// What an end-to-end run produced.
pub struct RunResult {
    /// End-to-end metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Ops completed over the whole measured phase.
    pub attempted: u64,
    /// Of those, ops that failed.
    pub failed: u64,
    /// Output checks: `Ok(summary)` or the first failure.
    pub check: Result<String, String>,
    /// Digest of the drawn schedule.
    pub digest: u64,
}

/// Network counters of the workload's world right now.
pub fn net<W: Workload>(w: &mut W) -> NetCounters {
    w.runtime().world().metrics().net.clone()
}

/// Builds the workload `SETUP_REPS` times and keeps the last one.
/// Returns it with the median set-up time in seconds, raw and normalised
/// to the reference machine speed.
pub fn setup_median<W: Workload>(seed: u64, kernel: &Kernel) -> Result<(W, f64, f64), String> {
    let (mut raw, mut normalised) = (
        Vec::with_capacity(SETUP_REPS),
        Vec::with_capacity(SETUP_REPS),
    );
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let before = kernel.run();
        let start = Instant::now();
        kept = Some(W::setup(seed)?);
        let took = start.elapsed().as_secs_f64();
        let speed = Kernel::speed(2, before + kernel.run());
        raw.push(took);
        normalised.push(took * speed);
    }
    Ok((
        kept.expect("at least one set-up"),
        median(&raw),
        median(&normalised),
    ))
}

/// Drives one repetition of `ops` ops in pieces of at most `piece` ops,
/// running the kernel and `after_piece` after each. Returns the raw ops
/// per wall second of the work alone, and the machine speed the kernel
/// saw meanwhile.
pub fn repetition<W: Workload>(
    w: &mut W,
    rec: &mut Recorder,
    ops: u64,
    piece: u64,
    kernel: &Kernel,
    mut after_piece: impl FnMut(&mut W),
) -> Result<(f64, f64), String> {
    let before = rec.completed;
    let (mut work, mut calibration, mut runs) = (0.0, 0.0, 0);
    let mut left = ops;
    while left > 0 {
        let n = left.min(piece);
        let start = Instant::now();
        w.drive(n, rec)?;
        work += start.elapsed().as_secs_f64();
        after_piece(w);
        calibration += kernel.run();
        runs += 1;
        left -= n;
    }
    Ok((
        (rec.completed - before) as f64 / work,
        Kernel::speed(runs, calibration),
    ))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Repeats `W::REP_OPS`-op repetitions for at least `seconds` (and at
/// least [`DET_REPS`] repetitions). The first `DET_REPS` repetitions give
/// the seed-determined metrics; throughput is the median over all.
pub fn run_untraced<W: Workload>(seed: u64, seconds: u64) -> Result<RunResult, String> {
    let kernel = Kernel::new();
    let (mut w, setup_raw, setup_s) = setup_median::<W>(seed, &kernel)?;
    let mut rec = Recorder::sampling((DET_REPS * W::REP_OPS) as usize + 64);
    let (mut raw, mut normalised, mut speeds) = (
        Vec::with_capacity(4_096),
        Vec::with_capacity(4_096),
        Vec::with_capacity(4_096),
    );
    let budget = Duration::from_secs(seconds);
    let (allocs0, net0, kernel0) = (alloc::count(), net(&mut w), kernel.allocs());
    let (mut det_allocs, mut det_net, mut det_ops, mut det_failed) =
        (0, NetCounters::default(), 0, 0);
    let piece = W::REP_OPS.div_ceil(PIECES);
    let start = Instant::now();
    loop {
        let (rate, speed) = repetition(&mut w, &mut rec, W::REP_OPS, piece, &kernel, |_| {})?;
        raw.push(rate);
        normalised.push(rate / speed);
        speeds.push(speed);
        if raw.len() as u64 == DET_REPS {
            det_allocs = alloc::count() - allocs0 - (kernel.allocs() - kernel0);
            det_net = net(&mut w);
            det_ops = rec.completed;
            det_failed = rec.failed;
            rec.stop_sampling();
        }
        if raw.len() as u64 >= DET_REPS && start.elapsed() >= budget {
            break;
        }
    }
    let check = w.finish(&mut rec);
    let ops = det_ops as f64;
    let mut vlat = std::mem::take(&mut rec.vlat_ms);
    vlat.sort_by(f64::total_cmp);
    let n = vlat.len();
    let p50 = percentile_sorted(&vlat, 50.0);
    let p99 = percentile_sorted(&vlat, 99.0);
    let beyond = |p: f64| vlat.iter().filter(|&&v| v > p).count();
    let metrics = vec![
        Metric::new("ops_per_s", median(&normalised), "ops/s").note(format!(
            "median of {} repetitions of {} ops, at reference machine speed",
            raw.len(),
            W::REP_OPS
        )),
        Metric::new("ops_per_s_wall", median(&raw), "ops/s").note("same, per wall second here"),
        Metric::new("machine_speed", median(&speeds), "ratio")
            .note("calibration kernel speed / reference"),
        Metric::new("vlat_mean_ms", mean(&vlat), "ms").note(format!("n={n}")),
        Metric::new("vlat_p50_ms", p50, "ms").note(format!("n={n}, {} beyond", beyond(p50))),
        Metric::new("vlat_p99_ms", p99, "ms").note(format!("n={n}, {} beyond", beyond(p99))),
        Metric::new("allocs_per_op", ratio(det_allocs as f64, ops), "allocs"),
        Metric::new(
            "msgs_per_op",
            ratio((det_net.sent - net0.sent) as f64, ops),
            "msgs",
        ),
        Metric::new(
            "bytes_per_op",
            ratio((det_net.bytes_sent - net0.bytes_sent) as f64, ops),
            "bytes",
        ),
        Metric::new("failed_frac", ratio(det_failed as f64, ops), "ratio").note(format!(
            "{det_failed} of {det_ops}; whole run {} of {}",
            rec.failed, rec.completed
        )),
        Metric::new("setup_s", setup_s, "s").note(format!(
            "median of {SETUP_REPS} set-ups, at reference machine speed"
        )),
        Metric::new("setup_s_wall", setup_raw, "s").note("same, wall seconds here"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    Ok(RunResult {
        metrics,
        attempted: rec.completed,
        failed: rec.failed,
        check,
        digest: w.schedule_digest(),
    })
}

/// Per-layer metrics, in report order.
pub const PER_LAYER: [&str; 45] = [
    "codec.encode_ns",
    "codec.decode_ns",
    "codec.encode_allocs",
    "codec.decode_allocs",
    "sim.dispatch_ns",
    "sim.dispatch_allocs",
    "sim.step_ns",
    "sim.delivered_per_op",
    "sim.dropped_per_op",
    "rmi.roundtrip_ns",
    "rmi.roundtrip_allocs",
    "rmi.calls_per_op",
    "rmi.fault_rsps_per_op",
    "engine.find_per_op",
    "engine.invoke_per_op",
    "engine.move_per_op",
    "engine.class_per_op",
    "engine.lock_per_op",
    "engine.checkpoint_per_op",
    "engine.restores",
    "engine.rebinds_per_op",
    "engine.stale_refusals",
    "engine.stale_replies_dropped",
    "engine.coercion_refusals",
    "session.issue_ns",
    "session.call.wall_ns",
    "session.call.allocs",
    "session.call_handle.wall_ns",
    "session.call_handle.allocs",
    "session.rev.wall_ns",
    "session.rev.allocs",
    "session.grev.wall_ns",
    "session.grev.allocs",
    "session.cod.wall_ns",
    "session.cod.allocs",
    "session.cle.wall_ns",
    "session.cle.allocs",
    "session.agent.wall_ns",
    "session.agent.allocs",
    "diff.session_minus_rmi.allocs",
    "diff.session_minus_rmi.ns",
    "diff.rmi_minus_sim.ns",
    "diff.rmi_minus_codec.ns",
    "trace.overhead_ops_per_s",
    "trace.overhead_frac",
];

/// Most ops driven between two clears of the world trace in a traced
/// run.
const TRACE_CHUNK: u64 = 1_000;

/// What a traced run produced.
pub struct TracedResult {
    /// Per-layer metrics (and the probes' extras), in report order.
    pub metrics: Vec<Metric>,
    /// Ops completed in the traced phase.
    pub attempted: u64,
    /// Of those, ops that failed.
    pub failed: u64,
    /// Output checks and trace predictions: `Ok(summary)` or the first
    /// failure.
    pub check: Result<String, String>,
    /// Where spans and counters were written.
    pub trace_file: String,
}

/// Per-label send counts, named counters and network counters of a
/// world at one instant.
struct Snapshot {
    labels: BTreeMap<String, u64>,
    counters: BTreeMap<&'static str, u64>,
    net: NetCounters,
}

impl Snapshot {
    fn of(rt: &Runtime) -> Self {
        let world = rt.world();
        let metrics = world.metrics();
        Snapshot {
            labels: metrics.iter().map(|(l, n)| (l.to_owned(), n)).collect(),
            counters: metrics.counters().collect(),
            net: metrics.net.clone(),
        }
    }

    /// Sends per label since `before`.
    fn labels_since(&self, before: &Snapshot) -> BTreeMap<String, u64> {
        self.labels
            .iter()
            .map(|(l, n)| (l.clone(), n - before.labels.get(l).copied().unwrap_or(0)))
            .filter(|(_, n)| *n > 0)
            .collect()
    }

    /// Named-counter increments since `before`.
    fn counters_since(&self, before: &Snapshot) -> BTreeMap<&'static str, u64> {
        self.counters
            .iter()
            .map(|(c, n)| (*c, n - before.counters.get(c).copied().unwrap_or(0)))
            .filter(|(_, n)| *n > 0)
            .collect()
    }
}

/// Counts of recorded trace events by type, accumulated across clears.
#[derive(Default)]
struct EventTally {
    sends: u64,
    deliveries: u64,
    drops: u64,
    timers: u64,
    notes: u64,
}

impl EventTally {
    /// Counts the world's recorded events, then clears the trace so its
    /// memory stays bounded.
    fn take(&mut self, rt: &mut Runtime) {
        let mut world = rt.world_mut();
        for event in world.trace().events() {
            match event {
                TraceEvent::Send { .. } => self.sends += 1,
                TraceEvent::Deliver { .. } => self.deliveries += 1,
                TraceEvent::Drop { .. } => self.drops += 1,
                TraceEvent::Timer { .. } => self.timers += 1,
                TraceEvent::Note { .. } => self.notes += 1,
            }
        }
        world.trace_mut().clear();
    }
}

/// The separate traced run: layer floor probes, then the workload twice
/// from the same seed — untraced for a throughput baseline (and
/// `Runtime::step` timing), then with `TraceMode::Full` and one span per
/// `Session` op for the per-layer counts. Spans, per-label and named
/// counters are kept in memory and written to `trace_dir` at the end.
pub fn run_traced<W: Workload>(
    name: &str,
    seed: u64,
    seconds: u64,
    trace_dir: &Path,
) -> Result<TracedResult, String> {
    let mut metrics = probes::run(&W::PROFILE, seed)?;
    let kernel = Kernel::new();
    let piece = W::REP_OPS.div_ceil(PIECES);

    // Untraced baseline, with `Runtime::step` timed.
    let mut w = W::setup(seed)?;
    let mut rec = Recorder::timing_steps();
    let mut rates = Vec::with_capacity(1_024);
    let budget = Duration::from_secs((seconds / 2).max(1));
    let start = Instant::now();
    while (rates.len() as u64) < DET_REPS || start.elapsed() < budget {
        let (rate, speed) = repetition(&mut w, &mut rec, W::REP_OPS, piece, &kernel, |_| {})?;
        rates.push(rate / speed);
    }
    let untraced = median(&rates);
    let step_ns = ratio(rec.step_wall_ns as f64, rec.steps as f64);
    drop(w);

    // Traced phase: same seed, same schedule; the world trace is counted
    // and cleared after every piece.
    let mut w = W::setup(seed)?;
    w.runtime().world_mut().set_trace_mode(TraceMode::Full);
    let before = Snapshot::of(w.runtime());
    let mut rec = Recorder::traced((DET_REPS * W::REP_OPS) as usize + 64);
    let mut events = EventTally::default();
    rates.clear();
    for _ in 0..DET_REPS {
        let (rate, speed) = repetition(
            &mut w,
            &mut rec,
            W::REP_OPS,
            piece.min(TRACE_CHUNK),
            &kernel,
            |w| events.take(w.runtime()),
        )?;
        rates.push(rate / speed);
    }
    let traced = median(&rates);
    let after = Snapshot::of(w.runtime());
    let ops = rec.completed as f64;
    let labels = after.labels_since(&before);
    let counters = after.counters_since(&before);
    let sent = |label: &str| labels.get(label).copied().unwrap_or(0) as f64;
    let per_op = |n: f64| ratio(n, ops);
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let calls: u64 = labels
        .iter()
        .filter(|(l, _)| l.starts_with("call"))
        .map(|(_, n)| n)
        .sum();
    let mut check = w.finish(&mut rec);
    events.take(w.runtime());

    let layer = vec![
        Metric::new("sim.step_ns", step_ns, "ns")
            .note(format!("{} benchmark-driven steps, untraced", rec.steps)),
        Metric::new(
            "sim.delivered_per_op",
            per_op((after.net.delivered - before.net.delivered) as f64),
            "msgs",
        ),
        Metric::new(
            "sim.dropped_per_op",
            per_op((after.net.dropped - before.net.dropped) as f64),
            "msgs",
        ),
        Metric::new("rmi.calls_per_op", per_op(calls as f64), "msgs"),
        Metric::new("rmi.fault_rsps_per_op", per_op(sent("rsp:fault")), "msgs"),
        Metric::new("engine.find_per_op", per_op(sent("call:mage.find")), "msgs"),
        Metric::new(
            "engine.invoke_per_op",
            per_op(sent("call:mage.invoke")),
            "msgs",
        ),
        Metric::new(
            "engine.move_per_op",
            per_op(sent("call:mage.moveTo") + sent("call:mage.receive")),
            "msgs",
        ),
        Metric::new(
            "engine.class_per_op",
            per_op(sent("call:mage.receiveClass") + sent("call:mage.fetchClass")),
            "msgs",
        ),
        Metric::new(
            "engine.lock_per_op",
            per_op(sent("call:mage.lock") + sent("call:mage.unlock")),
            "msgs",
        ),
        Metric::new(
            "engine.checkpoint_per_op",
            per_op(sent("call:mage.checkpoint")),
            "msgs",
        ),
        Metric::new("engine.restores", counter("snapshot_restores"), "count"),
        Metric::new(
            "engine.rebinds_per_op",
            per_op(counter("rebinds") + counter("auto_rebinds")),
            "count",
        ),
        Metric::new(
            "engine.stale_refusals",
            counter("stale_identity_refusals") + counter("stale_lock_refusals"),
            "count",
        ),
        Metric::new(
            "engine.stale_replies_dropped",
            counter("stale_replies_dropped"),
            "count",
        ),
        Metric::new(
            "engine.coercion_refusals",
            rec.coercion_refusals as f64,
            "count",
        ),
        Metric::new("trace.overhead_ops_per_s", untraced - traced, "ops/s").note(format!(
            "untraced {untraced:.0} vs traced {traced:.0} ops/s at reference speed"
        )),
        Metric::new(
            "trace.overhead_frac",
            ratio(untraced - traced, untraced),
            "ratio",
        ),
    ];
    metrics.extend(layer);
    metrics.extend(span_summary(&rec));

    if let Ok(summary) = &check {
        check = predictions(name, &metrics).map(|p| format!("{summary}; {p}"));
    }
    let trace_file = trace_dir.join(format!("{name}-seed{seed}.trace.json"));
    write_trace(&trace_file, name, seed, &rec, &labels, &counters, &events)?;
    Ok(TracedResult {
        metrics,
        attempted: rec.completed,
        failed: rec.failed,
        check,
        trace_file: trace_file.display().to_string(),
    })
}

/// Per-kind summary of the workload's spans: op count, failures, mean
/// virtual latency and mean wall time inside the issuing call.
fn span_summary(rec: &Recorder) -> Vec<Metric> {
    let spans = rec.spans.as_deref().unwrap_or_default();
    let mut out = Vec::new();
    for kind in Kind::ALL {
        let of_kind: Vec<&Span> = spans.iter().filter(|s| s.kind == kind).collect();
        if of_kind.is_empty() {
            continue;
        }
        let n = of_kind.len() as f64;
        let failed = of_kind.iter().filter(|s| s.outcome != Outcome::Ok).count();
        let vlat: f64 = of_kind
            .iter()
            .map(|s| (s.done_us - s.issue_us) as f64 / 1_000.0)
            .sum();
        let issue: f64 = of_kind.iter().map(|s| s.issue_wall_ns as f64).sum();
        let name = kind.name();
        out.push(
            Metric::new(format!("spans.{name}.vlat_mean_ms"), vlat / n, "ms")
                .note(format!("{n} ops, {failed} failed")),
        );
        out.push(Metric::new(
            format!("spans.{name}.issue_ns"),
            issue / n,
            "ns",
        ));
    }
    out
}

/// A prediction: metric, test on its value, and the expectation in words.
type Prediction = (&'static str, fn(f64) -> bool, &'static str);

/// The per-layer predictions each workload is built to confirm.
fn predictions(name: &str, metrics: &[Metric]) -> Result<String, String> {
    let value = |n: &str| {
        metrics
            .iter()
            .find(|m| m.name == n)
            .map_or(f64::NAN, |m| m.value)
    };
    let rules: &[Prediction] = match name {
        "call_steady" => &[
            ("engine.find_per_op", |v| v < 0.01, "~0"),
            ("engine.move_per_op", |v| v < 0.01, "~0"),
            ("engine.class_per_op", |v| v < 0.01, "~0"),
            ("engine.checkpoint_per_op", |v| v < 0.01, "~0"),
        ],
        "migrate_mix" => &[("engine.move_per_op", |v| v > 0.0, "> 0")],
        "durable_faults" => &[
            (
                "engine.checkpoint_per_op",
                |v| (0.8..1.5).contains(&v),
                "~1",
            ),
            ("engine.restores", |v| v > 0.0, "> 0"),
        ],
        _ => &[],
    };
    let mut held = Vec::with_capacity(rules.len());
    for (metric, holds, expected) in rules {
        let v = value(metric);
        if !holds(v) {
            return Err(format!("prediction {metric} {expected} failed: {v}"));
        }
        held.push(format!("{metric} {expected} ({v:.4})"));
    }
    Ok(format!("predictions hold: {}", held.join(", ")))
}

/// Writes spans, per-label and named counters and trace-event counts as
/// one JSON document.
fn write_trace(
    path: &Path,
    name: &str,
    seed: u64,
    rec: &Recorder,
    labels: &BTreeMap<String, u64>,
    counters: &BTreeMap<&'static str, u64>,
    events: &EventTally,
) -> Result<(), String> {
    let mut out = String::with_capacity(64 * rec.spans.as_ref().map_or(0, Vec::len) + 4_096);
    let _ = write!(
        out,
        "{{\"workload\": \"{name}\", \"seed\": {seed}, \"labels\": {{"
    );
    for (i, (label, n)) in labels.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(out, "{sep}\"{label}\": {n}");
    }
    out.push_str("}, \"counters\": {");
    for (i, (counter, n)) in counters.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(out, "{sep}\"{counter}\": {n}");
    }
    let _ = write!(
        out,
        "}}, \"trace_events\": {{\"send\": {}, \"deliver\": {}, \"drop\": {}, \"timer\": {}, \"note\": {}}}",
        events.sends, events.deliveries, events.drops, events.timers, events.notes
    );
    out.push_str(
        ", \"span_fields\": [\"op\", \"kind\", \"outcome\", \"issue_us\", \"done_us\", \"issue_wall_ns\"], \"spans\": [",
    );
    for (i, span) in rec.spans.iter().flatten().enumerate() {
        let sep = if i > 0 { ",\n" } else { "\n" };
        let _ = write!(
            out,
            "{sep}[{}, \"{}\", \"{}\", {}, {}, {}]",
            span.op,
            span.kind.name(),
            span.outcome.name(),
            span.issue_us,
            span.done_us,
            span.issue_wall_ns
        );
    }
    out.push_str("\n]}\n");
    std::fs::create_dir_all(path.parent().unwrap_or(Path::new(".")))
        .and_then(|()| std::fs::write(path, out))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}
