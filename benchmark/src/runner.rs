//! One run of one workload: repeated set-up, warm-up, a closed loop of
//! operations for `--seconds`, the invariants, and the metrics.

use crate::report::Ops;
use crate::trace::Tracer;
use crate::workloads::{Entry, Workload};
use crate::Options;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-up is repeated at least this often, and until [`SETUP_BUDGET`] is
/// spent, so that `setup_s` is a median even where one set-up takes
/// microseconds.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 2000;
const SETUP_BUDGET: Duration = Duration::from_millis(300);
/// Fewest timed operations in an untraced run, whatever `--seconds` says
/// (a traced run makes at least one untraced and one traced).
const MIN_OPS: usize = 2;

/// What the loop measured.
pub struct Measured {
    pub ops: Ops,
    pub setup_s: Vec<f64>,
    /// Seconds per timed operation, tracing off.
    pub plain_s: Vec<f64>,
    /// Seconds per timed operation, tracing on (empty unless `--trace 1`).
    pub traced_s: Vec<f64>,
    /// Wall seconds of the timed loop.
    pub loop_wall_s: f64,
    /// Process CPU seconds (user + system, all threads) of the same loop.
    pub loop_cpu_s: f64,
    /// `VmHWM` when the workload ended.
    pub peak_rss_mb: f64,
    pub tracer: Tracer,
}

impl Measured {
    /// A run that measured nothing (names and units only).
    pub fn empty() -> Measured {
        Measured {
            ops: Ops::default(),
            setup_s: Vec::new(),
            plain_s: Vec::new(),
            traced_s: Vec::new(),
            loop_wall_s: 0.0,
            loop_cpu_s: 0.0,
            peak_rss_mb: 0.0,
            tracer: Tracer::new(false),
        }
    }
}

pub fn run(entry: &Entry, args: &Options) -> Measured {
    let mut ops = Ops::default();
    let (mut w, setup_s) = set_up(entry, args);

    let mut off = Tracer::new(false);
    for i in 0..w.warmup_ops() {
        ops.record(guarded(w.as_mut(), i, &mut off));
    }

    // A traced run alternates untraced and traced operations, so the two
    // medians it compares for the tracing overhead saw the same conditions.
    let mut tracer = Tracer::new(args.trace);
    let (loop_start, cpu_start) = (Instant::now(), cpu_seconds());
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let min_plain = if args.trace { 1 } else { MIN_OPS };
    while plain_s.len() < min_plain || loop_start.elapsed().as_secs_f64() < args.seconds {
        let i = plain_s.len() + traced_s.len();
        plain_s.push(timed_op(w.as_mut(), i, &mut off, &mut ops));
        if args.trace {
            traced_s.push(timed_op(w.as_mut(), i + 1, &mut tracer, &mut ops));
        }
    }
    let loop_wall_s = loop_start.elapsed().as_secs_f64();
    let loop_cpu_s = cpu_seconds() - cpu_start;
    if args.trace {
        w.after_trace(&mut tracer);
    }

    for (holds, what) in w.invariants() {
        ops.invariant(holds, || what);
    }
    Measured {
        ops,
        setup_s,
        plain_s,
        traced_s,
        loop_wall_s,
        loop_cpu_s,
        peak_rss_mb: peak_rss_mb(),
        tracer,
    }
}

/// Build the fixture repeatedly, keeping the last; seconds per build.
fn set_up(entry: &Entry, args: &Options) -> (Box<dyn Workload>, Vec<f64>) {
    let began = Instant::now();
    let mut times = Vec::new();
    let mut built = None;
    while times.len() < SETUP_MIN || (began.elapsed() < SETUP_BUDGET && times.len() < SETUP_MAX) {
        drop(built.take()); // one fixture alive at a time: peak RSS is the workload's
        let t = Instant::now();
        built = Some((entry.build)(args.seed, args.size(), &args.out_dir));
        times.push(t.elapsed().as_secs_f64());
    }
    (built.expect("SETUP_MIN > 0"), times)
}

/// Run operation `i`, count its outcome, and return its seconds.
fn timed_op(w: &mut dyn Workload, i: usize, tr: &mut Tracer, ops: &mut Ops) -> f64 {
    tr.set_op(i as u64);
    let t = Instant::now();
    let outcome = tr.span("op", |tr| guarded(w, i, tr));
    let took = t.elapsed().as_secs_f64();
    ops.record(outcome);
    took
}

/// An operation that panics is a failed operation, not a dead benchmark.
fn guarded(w: &mut dyn Workload, i: usize, tr: &mut Tracer) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| w.op(i, tr))).unwrap_or_else(|p| {
        let why = p
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| p.downcast_ref::<&str>().copied())
            .unwrap_or("panic");
        Err(format!("op {i} panicked: {why}"))
    })
}

/// The process's high-water resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds the process has used so far: `utime + stime` of
/// `/proc/self/stat`, which covers every thread, live or joined.
fn cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0; // USER_HZ, fixed by the Linux ABI
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields are counted after the command name, which may hold spaces.
    let after_comm = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
    let ticks: f64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / TICKS_PER_SECOND
}
