//! Trace exporters: JSON-lines and Chrome `trace_event`.
//!
//! Both formats are documented field-by-field in `docs/TRACING.md`.
//! Serialization is hand-rolled (this crate is dependency-free); all
//! strings are escaped per RFC 8259 and non-finite floats are emitted
//! as `null` so output is always valid JSON.
//!
//! Neither exporter names an event's fields: both walk the visitor that
//! the `events!` table in `event.rs` generates. JSON-lines is that walk
//! verbatim. The Chrome document adds one `Row` per rendered event
//! (`chrome_row`) — display name, category, lane, shape, and which field
//! keys go into `args` — and a single emitter turns a row into an entry.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::event::{Event, Field};

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Incremental writer for one JSON object, appended to `out`.
struct Obj<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> Obj<'a> {
    fn open(out: &'a mut String) -> Obj<'a> {
        out.push('{');
        Obj { out, first: true }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        push_json_string(self.out, key);
        self.out.push(':');
    }

    /// The one place a value becomes JSON text.
    fn field(&mut self, key: &str, value: Field<'_>) -> &mut Self {
        self.key(key);
        let _ = match value {
            Field::Str(s) => {
                push_json_string(self.out, s);
                Ok(())
            }
            Field::Int(v) => write!(self.out, "{v}"),
            Field::Flag(v) => write!(self.out, "{v}"),
            Field::Step(Some(v)) => write!(self.out, "{v}"),
            Field::Time(v) | Field::Secs(v) if v.is_finite() => write!(self.out, "{v}"),
            Field::Step(None) | Field::Time(_) | Field::Secs(_) => write!(self.out, "null"),
        };
        self
    }

    fn close(self) {
        self.out.push('}');
    }
}

fn push_event(out: &mut String, event: &Event) {
    let mut o = Obj::open(out);
    o.field("type", Field::Str(event.name()));
    event.visit(|key, value| {
        o.field(key, value);
    });
    o.close();
}

/// Serialize events as JSON-lines: one JSON object per line.
pub fn to_json_lines(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        push_event(&mut out, e);
        out.push('\n');
    }
    out
}

const MICROS: f64 = 1e6;

/// The row (Chrome thread) an entry sits on.
enum Lane {
    /// `pid` = this rack, `tid` = this node.
    Node(usize, usize),
    /// This `tid` of the synthetic "repair pipeline" process.
    Pipeline(usize),
}

/// The Chrome phase (`ph`) an entry takes.
enum Shape {
    /// A zero-width `i` entry at [`Event::time`] with this scope (`s`).
    Instant(&'static str),
    /// An `X` entry from this start (seconds) to [`Event::time`].
    Span(f64),
}

/// How one event renders in the Chrome trace.
struct Row {
    name: String,
    cat: &'static str,
    lane: Lane,
    shape: Shape,
    /// Keys of the event's fields copied into `args`, in this order
    /// (not always schema order: see `transfer_done`). Empty: no `args`.
    args: &'static [&'static str],
}

fn request_kind(read: bool, degraded: bool) -> &'static str {
    match (degraded, read) {
        (true, _) => "degraded read",
        (false, true) => "read",
        (false, false) => "write",
    }
}

/// The Chrome rendering of `e`, or `None` for the two events that only
/// show through another's entry. `wave_start` is the first
/// `timestep_started` time of each step.
fn chrome_row(e: &Event, wave_start: &HashMap<usize, f64>) -> Option<Row> {
    use Lane::{Node, Pipeline};
    use Shape::{Instant, Span};
    Some(match e {
        Event::PlanBuilt { scheme, .. } => Row {
            name: format!("plan: {scheme}"),
            cat: "plan",
            lane: Pipeline(0),
            shape: Instant("p"),
            args: &["ops", "cross_transfers", "cross_timesteps"],
        },
        // Rendered as the start of the paired `timestep_finished` span.
        Event::TimestepStarted { .. } => return None,
        // An unpaired finish opens at 0.
        Event::TimestepFinished { step, .. } => Row {
            name: format!("timestep {step}"),
            cat: "timestep",
            lane: Pipeline(1),
            shape: Span(wave_start.get(step).copied().unwrap_or(0.0)),
            args: &["step"],
        },
        Event::TransferQueued { xfer, .. } => Row {
            name: format!("queued: {}", xfer.label),
            cat: "queue",
            lane: Node(xfer.src_rack, xfer.src_node),
            shape: Instant("t"),
            args: &[],
        },
        // Queue wait is visible as the gap between the queued instant
        // and the `transfer_done` span, both on the source node row.
        Event::TransferStarted { .. } => return None,
        Event::TransferDone { xfer, start, .. } => Row {
            name: xfer.label.clone(),
            cat: if xfer.cross {
                "transfer.cross"
            } else {
                "transfer.inner"
            },
            lane: Node(xfer.src_rack, xfer.src_node),
            shape: Span(*start),
            args: &["bytes", "dst_node", "dst_rack", "timestep"],
        },
        Event::CombineDone {
            label,
            node,
            rack,
            start,
            ..
        } => Row {
            name: label.clone(),
            cat: "combine",
            lane: Node(*rack, *node),
            shape: Span(*start),
            args: &["kernel", "inputs", "bytes"],
        },
        Event::TransferFailed { xfer, reason, .. } => Row {
            name: format!("failed: {} ({reason})", xfer.label),
            cat: "fault",
            lane: Node(xfer.src_rack, xfer.src_node),
            shape: Instant("t"),
            args: &["attempt"],
        },
        Event::RetryScheduled { label, .. } => Row {
            name: format!("retry: {label}"),
            cat: "fault",
            lane: Pipeline(0),
            shape: Instant("p"),
            args: &["rack", "attempt", "delay"],
        },
        Event::HelperCrashed { node, rack, .. } => Row {
            name: format!("helper crashed: node {node}"),
            cat: "fault",
            lane: Node(*rack, *node),
            shape: Instant("p"),
            args: &["node"],
        },
        Event::Replanned { scheme, .. } => Row {
            name: format!("replanned: {scheme}"),
            cat: "fault",
            lane: Pipeline(0),
            shape: Instant("p"),
            args: &["failed", "reused_ops"],
        },
        Event::StreamSummary { xfer, .. } => Row {
            name: format!("stream: {}", xfer.label),
            cat: "stream",
            lane: Node(xfer.src_rack, xfer.src_node),
            shape: Instant("t"),
            args: &["chunks", "chunk_bytes", "first_chunk_latency", "throughput"],
        },
        Event::HedgeLaunched { label, .. } => Row {
            name: format!("hedge: {label}"),
            cat: "hedge",
            lane: Pipeline(0),
            shape: Instant("p"),
            args: &["slow_node", "hedge_node", "multiple"],
        },
        Event::HedgeWon { label, .. } => Row {
            name: format!("hedge won: {label}"),
            cat: "hedge",
            lane: Pipeline(0),
            shape: Instant("p"),
            args: &["winner_node", "saved"],
        },
        Event::HelperQuarantined { node, .. } => Row {
            name: format!("quarantined: node {node}"),
            cat: "health",
            lane: Pipeline(0),
            shape: Instant("p"),
            args: &["node", "score"],
        },
        Event::DeadlineExceeded { scope, .. } => Row {
            name: format!("deadline exceeded ({scope})"),
            cat: "deadline",
            lane: Pipeline(0),
            shape: Instant("p"),
            args: &["budget", "elapsed"],
        },
        Event::DegradedFallback { tier, .. } => Row {
            name: format!("degraded fallback: {tier}"),
            cat: "deadline",
            lane: Pipeline(0),
            shape: Instant("p"),
            args: &["reason"],
        },
        Event::StripeEnqueued { stripe, .. } => Row {
            name: format!("stripe {stripe} enqueued"),
            cat: "fleet",
            lane: Pipeline(0),
            shape: Instant("p"),
            args: &["stripe", "level"],
        },
        Event::StripeAdmitted { stripe, .. } => Row {
            name: format!("stripe {stripe} admitted"),
            cat: "fleet",
            lane: Pipeline(0),
            shape: Instant("p"),
            args: &["stripe", "level"],
        },
        Event::BandwidthWaited { stripe, .. } => Row {
            name: format!("stripe {stripe} waited for bandwidth"),
            cat: "fleet",
            lane: Pipeline(0),
            shape: Instant("p"),
            args: &["stripe", "level", "waited"],
        },
        Event::ChurnFailure { stripe, .. } => Row {
            name: format!("stripe {stripe} hit by churn"),
            cat: "fleet",
            lane: Pipeline(0),
            shape: Instant("p"),
            args: &["stripe", "level"],
        },
        Event::RiskEscalated {
            stripe, from, to, ..
        } => Row {
            name: format!("stripe {stripe} escalated {from}→{to}"),
            cat: "fleet",
            lane: Pipeline(0),
            shape: Instant("p"),
            args: &["stripe", "from", "to", "in_flight"],
        },
        Event::StripeLost { stripe, .. } => Row {
            name: format!("stripe {stripe} permanently lost"),
            cat: "fleet",
            lane: Pipeline(0),
            shape: Instant("p"),
            args: &["stripe", "level"],
        },
        Event::JournalCheckpoint { seq, .. } => Row {
            name: format!("journal checkpoint #{seq}"),
            cat: "fleet",
            lane: Pipeline(0),
            shape: Instant("p"),
            args: &["seq", "completed", "lost"],
        },
        Event::RequestIssued {
            request,
            read,
            degraded,
            ..
        } => Row {
            name: format!(
                "request {request} issued ({})",
                request_kind(*read, *degraded)
            ),
            cat: "load",
            lane: Pipeline(2),
            shape: Instant("p"),
            args: &["request", "read", "degraded"],
        },
        Event::RequestDone {
            request,
            read,
            degraded,
            issued,
            ..
        } => Row {
            name: format!("request {request} ({})", request_kind(*read, *degraded)),
            cat: "load",
            lane: Pipeline(2),
            shape: Span(*issued),
            args: &["request", "read", "degraded", "first_byte"],
        },
        Event::QosThrottled { flows, .. } => Row {
            name: format!("qos throttled {flows} repair flows"),
            cat: "load",
            lane: Pipeline(0),
            shape: Instant("p"),
            args: &["flows", "fraction"],
        },
        Event::ProofEmitted { op, node, .. } => Row {
            name: format!("proof emitted: op {op} (node {node})"),
            cat: "proof",
            lane: Pipeline(0),
            shape: Instant("p"),
            args: &["op", "node", "gen"],
        },
        Event::ProofRejected { op, node, .. } => Row {
            name: format!("proof rejected: op {op} (node {node})"),
            cat: "proof",
            lane: Pipeline(0),
            shape: Instant("p"),
            args: &["op", "node", "gen"],
        },
        Event::HelperAccused { node, .. } => Row {
            name: format!("accused: node {node}"),
            cat: "proof",
            lane: Pipeline(0),
            shape: Instant("p"),
            args: &["node", "gen"],
        },
        Event::RepairDone { .. } => Row {
            name: "repair done".to_string(),
            cat: "plan",
            lane: Pipeline(0),
            shape: Instant("p"),
            args: &["cross_bytes", "inner_bytes"],
        },
    })
}

/// Appends the one `process_name` metadata entry that labels `pid`.
fn push_process_name(out: &mut String, pid: usize, name: &str) {
    let mut o = Obj::open(out);
    o.field("name", Field::Str("process_name"))
        .field("ph", Field::Str("M"))
        .field("pid", Field::Int(pid as u64))
        .key("args");
    let mut args = Obj::open(o.out);
    args.field("name", Field::Str(name));
    args.close();
    o.close();
}

/// Appends the entry for `e` as `row` describes it — the one emitter.
fn push_entry(out: &mut String, e: &Event, row: &Row, pipeline_pid: usize) {
    let end = e.time();
    let (ph, start) = match row.shape {
        Shape::Instant(_) => ("i", end),
        Shape::Span(start) => ("X", start),
    };
    let (pid, tid) = match row.lane {
        Lane::Node(rack, node) => (rack, node),
        Lane::Pipeline(tid) => (pipeline_pid, tid),
    };
    let mut o = Obj::open(out);
    o.field("name", Field::Str(&row.name))
        .field("cat", Field::Str(row.cat))
        .field("ph", Field::Str(ph))
        .field("ts", Field::Secs(start * MICROS));
    if let Shape::Span(_) = row.shape {
        o.field("dur", Field::Secs((end - start).max(0.0) * MICROS));
    }
    o.field("pid", Field::Int(pid as u64))
        .field("tid", Field::Int(tid as u64));
    if let Shape::Instant(scope) = row.shape {
        o.field("s", Field::Str(scope));
    }
    if !row.args.is_empty() {
        o.key("args");
        let mut args = Obj::open(o.out);
        for &wanted in row.args {
            e.visit(|key, value| {
                // An inner transfer has no `timestep` to show.
                if key == wanted && value != Field::Step(None) {
                    args.field(key, value);
                }
            });
        }
        args.close();
    }
    o.close();
}

/// Serialize events as a Chrome `trace_event` JSON document, loadable in
/// `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
///
/// Mapping: **pid = rack**, **tid = node** (transfer spans sit on the
/// sending node's row); timesteps and repair-level events live on a
/// synthetic "pipeline" process one past the highest rack. Timestamps
/// are microseconds (`ts`/`dur`), per the format.
pub fn to_chrome_trace(events: &[Event]) -> String {
    // Every rack any event names gets a process row, whichever lane the
    // event itself renders on (`retry_scheduled` sits on the pipeline's).
    let mut max_rack = 0usize;
    let mut wave_start: HashMap<usize, f64> = HashMap::new();
    for e in events {
        if let Event::TimestepStarted { step, t } = e {
            wave_start.entry(*step).or_insert(*t);
        }
        e.visit(|key, value| {
            if let ("rack" | "src_rack" | "dst_rack", Field::Int(rack)) = (key, value) {
                max_rack = max_rack.max(rack as usize);
            }
        });
    }
    let pipeline_pid = max_rack + 1;

    let mut out = String::from("{\"traceEvents\":[\n");
    for rack in 0..=max_rack {
        push_process_name(&mut out, rack, &format!("rack {rack}"));
        out.push_str(",\n");
    }
    push_process_name(&mut out, pipeline_pid, "repair pipeline");
    for e in events {
        if let Some(row) = chrome_row(e, &wave_start) {
            out.push_str(",\n");
            push_entry(&mut out, e, &row, pipeline_pid);
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tests::{one_of_each, tracing_md_section};
    use crate::event::{Kernel, Transfer};

    fn sample_events() -> Vec<Event> {
        let xfer = Transfer {
            label: "p0op1:send \"quoted\"\n".into(),
            src_node: 3,
            src_rack: 1,
            dst_node: 0,
            dst_rack: 0,
            bytes: 4096,
            cross: true,
            timestep: Some(0),
        };
        vec![
            Event::PlanBuilt {
                scheme: "rpr".into(),
                parts: 1,
                ops: 4,
                cross_transfers: 2,
                inner_transfers: 1,
                cross_timesteps: 2,
                block_bytes: 4096,
            },
            Event::TimestepStarted { step: 0, t: 0.0 },
            Event::TransferQueued {
                xfer: xfer.clone(),
                t: 0.0,
            },
            Event::TransferStarted {
                xfer: xfer.clone(),
                queue_wait: 0.25,
                t: 0.25,
            },
            Event::TransferDone {
                xfer,
                start: 0.25,
                end: 0.75,
            },
            Event::TimestepFinished { step: 0, t: 0.75 },
            Event::CombineDone {
                label: "p0op2:combine".into(),
                node: 0,
                rack: 0,
                kernel: Kernel::Gf,
                inputs: 2,
                bytes: 4096,
                start: 0.75,
                end: 1.0,
            },
            Event::RepairDone {
                t: 1.0,
                cross_bytes: 4096,
                inner_bytes: 0,
            },
        ]
    }

    /// A tiny structural JSON validator: verifies balanced braces and
    /// brackets outside strings, and that strings close with proper
    /// escape handling. Catches malformed output without a JSON parser.
    fn assert_structurally_valid_json(s: &str) {
        let mut depth_obj = 0i32;
        let mut depth_arr = 0i32;
        let mut in_str = false;
        let mut escaped = false;
        for c in s.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' => depth_obj += 1,
                '}' => depth_obj -= 1,
                '[' => depth_arr += 1,
                ']' => depth_arr -= 1,
                _ => {}
            }
            assert!(depth_obj >= 0 && depth_arr >= 0, "unbalanced close in {s}");
        }
        assert!(!in_str, "unterminated string in {s}");
        assert_eq!(depth_obj, 0, "unbalanced braces in {s}");
        assert_eq!(depth_arr, 0, "unbalanced brackets in {s}");
    }

    /// What the committed fixtures render: every variant, every variant
    /// again `shifted(0.333)` (so each step has a duplicate
    /// `timestep_started`), then the cases a rewrite could get wrong.
    fn fixture_events() -> Vec<Event> {
        let hostile = Transfer {
            label: "p0op1:send \"q\" \\ \t\u{1}".into(),
            src_node: 9,
            src_rack: 3,
            dst_node: 10,
            dst_rack: 3,
            bytes: 512,
            cross: false,
            timestep: None,
        };
        let mut events = one_of_each();
        events.extend(one_of_each().into_iter().map(|e| e.shifted(0.333)));
        events.extend([
            Event::PlanBuilt {
                scheme: "r\"p\\r".into(),
                parts: 2,
                ops: 0,
                cross_transfers: 0,
                inner_transfers: 0,
                cross_timesteps: 0,
                block_bytes: u64::MAX,
            },
            // An inner transfer: `timestep` is null in JSON-lines and
            // absent from the Chrome `args`.
            Event::TransferQueued {
                xfer: hostile.clone(),
                t: 31.0,
            },
            Event::TransferStarted {
                xfer: hostile.clone(),
                queue_wait: f64::INFINITY,
                t: 31.5,
            },
            Event::TransferDone {
                xfer: hostile.clone(),
                start: 31.5,
                end: 32.0,
            },
            // An inverted span clamps to zero duration.
            Event::TransferDone {
                xfer: hostile.clone(),
                start: 34.0,
                end: 33.0,
            },
            Event::TransferFailed {
                xfer: hostile.clone(),
                attempt: 3,
                reason: "node_down".into(),
                t: 35.0,
            },
            Event::StreamSummary {
                xfer: hostile,
                chunks: 1,
                chunk_bytes: 512,
                first_chunk_latency: f64::NAN,
                throughput: f64::INFINITY,
                t: 36.0,
            },
            Event::CombineDone {
                label: "p0op2:combine".into(),
                node: 10,
                rack: 3,
                kernel: Kernel::Gf,
                inputs: 3,
                bytes: 512,
                start: f64::NAN,
                end: 37.0,
            },
            // A rack that only a pipeline-lane retry names still gets a
            // process row (and pushes the pipeline's pid up).
            Event::RetryScheduled {
                label: "p0op1:send".into(),
                rack: 5,
                attempt: 3,
                delay: f64::NAN,
                t: 38.0,
            },
            Event::HedgeWon {
                label: "p0op1:send".into(),
                winner_node: 4,
                saved: f64::NEG_INFINITY,
                t: 39.0,
            },
            // Duplicate start: the span opens at the first one.
            Event::TimestepStarted { step: 5, t: 40.0 },
            Event::TimestepStarted { step: 5, t: 41.0 },
            Event::TimestepFinished { step: 5, t: 42.0 },
            // Unpaired finish: the span opens at 0.
            Event::TimestepFinished { step: 7, t: 43.0 },
            // A finish recorded before its start still finds it.
            Event::TimestepFinished { step: 9, t: 45.0 },
            Event::TimestepStarted { step: 9, t: 44.0 },
            Event::RequestIssued {
                request: 2,
                read: false,
                degraded: false,
                t: 46.0,
            },
            Event::RequestDone {
                request: 3,
                read: true,
                degraded: true,
                first_byte: 0.5,
                issued: 48.0,
                end: 47.0,
            },
            Event::RepairDone {
                t: f64::NAN,
                cross_bytes: 0,
                inner_bytes: 0,
            },
        ]);
        events
    }

    fn assert_matches_fixture(format: &str, got: &str, want: &str) {
        if got == want {
            return;
        }
        let (mut got, mut want) = (got.lines(), want.lines());
        let mut line = 1;
        loop {
            let (g, w) = (got.next(), want.next());
            assert!(
                g == w,
                "{format} output differs from its fixture at line {line}:\n  got:  {g:?}\n  want: {w:?}"
            );
            assert!(g.is_some(), "{format} output differs only in line endings");
            line += 1;
        }
    }

    /// Both wire formats, byte for byte: the fixtures are the oracle for any
    /// rewrite of the exporters. A deliberate format change regenerates
    /// them in the same commit and says why.
    #[test]
    fn both_formats_match_the_committed_fixtures() {
        let events = fixture_events();
        assert_matches_fixture(
            "JSON-lines",
            &to_json_lines(&events),
            include_str!("../tests/fixtures/all_events.jsonl"),
        );
        assert_matches_fixture(
            "Chrome",
            &to_chrome_trace(&events),
            include_str!("../tests/fixtures/all_events.chrome.json"),
        );
    }

    #[test]
    fn json_lines_one_valid_object_per_event() {
        let events = sample_events();
        let out = to_json_lines(&events);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), events.len());
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert_structurally_valid_json(line);
        }
        assert!(lines[0].contains("\"type\":\"plan_built\""));
        assert!(lines[4].contains("\"type\":\"transfer_done\""));
        // The quote and newline in the label must be escaped.
        assert!(lines[4].contains("\\\"quoted\\\"\\n"));
    }

    #[test]
    fn chrome_trace_is_valid_and_complete() {
        let out = to_chrome_trace(&sample_events());
        assert_structurally_valid_json(&out);
        assert!(out.starts_with("{\"traceEvents\":["));
        // Spans for the transfer, the combine, and the timestep.
        assert!(out.contains("\"cat\":\"transfer.cross\""));
        assert!(out.contains("\"cat\":\"combine\""));
        assert!(out.contains("\"name\":\"timestep 0\""));
        // pid = rack of the sender (1), tid = sending node (3).
        assert!(out.contains("\"pid\":1,\"tid\":3"));
        // Process-name metadata for racks and the pipeline lane.
        assert!(out.contains("\"name\":\"rack 0\""));
        assert!(out.contains("\"name\":\"repair pipeline\""));
        // Durations are microseconds: the 0.5 s transfer is 500000 µs.
        assert!(out.contains("\"dur\":500000"));
    }

    #[test]
    fn failure_events_serialize_in_both_formats() {
        let xfer = Transfer {
            label: "p0op1:send".into(),
            src_node: 3,
            src_rack: 1,
            dst_node: 0,
            dst_rack: 0,
            bytes: 4096,
            cross: true,
            timestep: Some(0),
        };
        let events = vec![
            Event::TransferFailed {
                xfer,
                attempt: 0,
                reason: "timeout".into(),
                t: 0.4,
            },
            Event::RetryScheduled {
                label: "p0op1:send".into(),
                rack: 1,
                attempt: 0,
                delay: 0.05,
                t: 0.4,
            },
            Event::HelperCrashed {
                node: 3,
                rack: 1,
                t: 0.6,
            },
            Event::Replanned {
                scheme: "rpr".into(),
                failed: 2,
                reused_ops: 3,
                t: 0.65,
            },
        ];
        let jsonl = to_json_lines(&events);
        for line in jsonl.lines() {
            assert_structurally_valid_json(line);
        }
        assert!(jsonl.contains("\"type\":\"transfer_failed\""));
        assert!(jsonl.contains("\"reason\":\"timeout\""));
        assert!(jsonl.contains("\"type\":\"retry_scheduled\""));
        assert!(jsonl.contains("\"delay\":0.05"));
        assert!(jsonl.contains("\"type\":\"helper_crashed\""));
        assert!(jsonl.contains("\"type\":\"replanned\""));
        assert!(jsonl.contains("\"reused_ops\":3"));
        let chrome = to_chrome_trace(&events);
        assert_structurally_valid_json(&chrome);
        assert!(chrome.contains("\"cat\":\"fault\""));
        assert!(chrome.contains("failed: p0op1:send (timeout)"));
        assert!(chrome.contains("replanned: rpr"));
    }

    #[test]
    fn supervisor_events_serialize_in_both_formats() {
        let events = vec![
            Event::HedgeLaunched {
                label: "p1op4:send".into(),
                slow_node: 3,
                hedge_node: 7,
                multiple: 2.5,
                t: 0.4,
            },
            Event::HedgeWon {
                label: "p1op4:send".into(),
                winner_node: 7,
                saved: 0.125,
                t: 0.55,
            },
            Event::HelperQuarantined {
                node: 3,
                score: 0.25,
                t: 0.55,
            },
            Event::DeadlineExceeded {
                scope: "wave".into(),
                budget: 0.5,
                elapsed: 0.8,
                t: 0.8,
            },
            Event::DegradedFallback {
                tier: "degraded-read".into(),
                reason: "replan budget exhausted".into(),
                t: 0.9,
            },
        ];
        let jsonl = to_json_lines(&events);
        for line in jsonl.lines() {
            assert_structurally_valid_json(line);
        }
        assert!(jsonl.contains("\"type\":\"hedge_launched\""));
        assert!(jsonl.contains("\"hedge_node\":7"));
        assert!(jsonl.contains("\"type\":\"hedge_won\""));
        assert!(jsonl.contains("\"saved\":0.125"));
        assert!(jsonl.contains("\"type\":\"helper_quarantined\""));
        assert!(jsonl.contains("\"score\":0.25"));
        assert!(jsonl.contains("\"type\":\"deadline_exceeded\""));
        assert!(jsonl.contains("\"scope\":\"wave\""));
        assert!(jsonl.contains("\"type\":\"degraded_fallback\""));
        assert!(jsonl.contains("\"tier\":\"degraded-read\""));
        let chrome = to_chrome_trace(&events);
        assert_structurally_valid_json(&chrome);
        assert!(chrome.contains("\"cat\":\"hedge\""));
        assert!(chrome.contains("hedge won: p1op4:send"));
        assert!(chrome.contains("quarantined: node 3"));
        assert!(chrome.contains("deadline exceeded (wave)"));
        assert!(chrome.contains("degraded fallback: degraded-read"));
    }

    #[test]
    fn stream_summary_serializes_in_both_formats() {
        let events = vec![Event::StreamSummary {
            xfer: Transfer {
                label: "p0op1:send".into(),
                src_node: 3,
                src_rack: 1,
                dst_node: 0,
                dst_rack: 0,
                bytes: 4096,
                cross: true,
                timestep: Some(0),
            },
            chunks: 4,
            chunk_bytes: 1024,
            first_chunk_latency: 0.125,
            throughput: 8192.0,
            t: 0.5,
        }];
        let jsonl = to_json_lines(&events);
        for line in jsonl.lines() {
            assert_structurally_valid_json(line);
        }
        assert!(jsonl.contains("\"type\":\"stream_summary\""));
        assert!(jsonl.contains("\"chunks\":4"));
        assert!(jsonl.contains("\"chunk_bytes\":1024"));
        assert!(jsonl.contains("\"first_chunk_latency\":0.125"));
        assert!(jsonl.contains("\"throughput\":8192"));
        let chrome = to_chrome_trace(&events);
        assert_structurally_valid_json(&chrome);
        assert!(chrome.contains("\"cat\":\"stream\""));
        assert!(chrome.contains("stream: p0op1:send"));
    }

    #[test]
    fn fleet_events_serialize_in_both_formats() {
        let events = vec![
            Event::StripeEnqueued {
                stripe: 123456,
                level: 2,
                t: 0.0,
            },
            Event::StripeAdmitted {
                stripe: 123456,
                level: 2,
                t: 1.5,
            },
            Event::BandwidthWaited {
                stripe: 123456,
                level: 2,
                waited: 1.5,
                t: 1.5,
            },
        ];
        let jsonl = to_json_lines(&events);
        for line in jsonl.lines() {
            assert_structurally_valid_json(line);
        }
        assert!(jsonl.contains("\"type\":\"stripe_enqueued\""));
        assert!(jsonl.contains("\"type\":\"stripe_admitted\""));
        assert!(jsonl.contains("\"type\":\"bandwidth_waited\""));
        assert!(jsonl.contains("\"stripe\":123456"));
        assert!(jsonl.contains("\"level\":2"));
        assert!(jsonl.contains("\"waited\":1.5"));
        let chrome = to_chrome_trace(&events);
        assert_structurally_valid_json(&chrome);
        assert!(chrome.contains("\"cat\":\"fleet\""));
        assert!(chrome.contains("stripe 123456 enqueued"));
        assert!(chrome.contains("stripe 123456 admitted"));
        assert!(chrome.contains("stripe 123456 waited for bandwidth"));
    }

    #[test]
    fn churn_events_serialize_in_both_formats() {
        let events = vec![
            Event::ChurnFailure {
                stripe: 42,
                level: 2,
                t: 1.0,
            },
            Event::RiskEscalated {
                stripe: 42,
                from: 1,
                to: 2,
                in_flight: true,
                t: 1.0,
            },
            Event::StripeLost {
                stripe: 43,
                level: 4,
                t: 2.5,
            },
            Event::JournalCheckpoint {
                seq: 9,
                completed: 100,
                lost: 1,
                t: 3.0,
            },
        ];
        let jsonl = to_json_lines(&events);
        for line in jsonl.lines() {
            assert_structurally_valid_json(line);
        }
        assert!(jsonl.contains("\"type\":\"churn_failure\""));
        assert!(jsonl.contains("\"type\":\"risk_escalated\""));
        assert!(jsonl.contains("\"type\":\"stripe_lost\""));
        assert!(jsonl.contains("\"type\":\"journal_checkpoint\""));
        assert!(jsonl.contains("\"from\":1"));
        assert!(jsonl.contains("\"to\":2"));
        assert!(jsonl.contains("\"in_flight\":true"));
        assert!(jsonl.contains("\"seq\":9"));
        assert!(jsonl.contains("\"completed\":100"));
        assert!(jsonl.contains("\"lost\":1"));
        let chrome = to_chrome_trace(&events);
        assert_structurally_valid_json(&chrome);
        assert!(chrome.contains("stripe 42 hit by churn"));
        assert!(chrome.contains("stripe 42 escalated 1→2"));
        assert!(chrome.contains("stripe 43 permanently lost"));
        assert!(chrome.contains("journal checkpoint #9"));
    }

    #[test]
    fn request_events_serialize_in_both_formats() {
        let events = vec![
            Event::RequestIssued {
                request: 7,
                read: true,
                degraded: true,
                t: 0.25,
            },
            Event::RequestDone {
                request: 7,
                read: true,
                degraded: true,
                first_byte: 0.05,
                issued: 0.25,
                end: 0.75,
            },
            Event::QosThrottled {
                flows: 3,
                fraction: 0.4,
                t: 0.1,
            },
        ];
        let jsonl = to_json_lines(&events);
        for line in jsonl.lines() {
            assert_structurally_valid_json(line);
        }
        assert!(jsonl.contains("\"type\":\"request_issued\""));
        assert!(jsonl.contains("\"type\":\"request_done\""));
        assert!(jsonl.contains("\"request\":7"));
        assert!(jsonl.contains("\"degraded\":true"));
        assert!(jsonl.contains("\"first_byte\":0.05"));
        assert!(jsonl.contains("\"type\":\"qos_throttled\""));
        assert!(jsonl.contains("\"fraction\":0.4"));
        let chrome = to_chrome_trace(&events);
        assert_structurally_valid_json(&chrome);
        assert!(chrome.contains("\"cat\":\"load\""));
        assert!(chrome.contains("request 7 issued (degraded read)"));
        assert!(chrome.contains("request 7 (degraded read)"));
        assert!(chrome.contains("qos throttled 3 repair flows"));
        // The 0.5 s request span renders as 500000 µs.
        assert!(chrome.contains("\"dur\":500000"));
    }

    #[test]
    fn proof_events_serialize_in_both_formats() {
        let events = vec![
            Event::ProofEmitted {
                op: 4,
                node: 9,
                gen: 0,
                t: 0.2,
            },
            Event::ProofRejected {
                op: 4,
                node: 9,
                gen: 0,
                t: 0.3,
            },
            Event::HelperAccused {
                node: 9,
                gen: 0,
                t: 0.3,
            },
        ];
        let jsonl = to_json_lines(&events);
        for line in jsonl.lines() {
            assert_structurally_valid_json(line);
        }
        assert!(jsonl.contains("\"type\":\"proof_emitted\""));
        assert!(jsonl.contains("\"type\":\"proof_rejected\""));
        assert!(jsonl.contains("\"type\":\"helper_accused\""));
        assert!(jsonl.contains("\"op\":4"));
        assert!(jsonl.contains("\"node\":9"));
        assert!(jsonl.contains("\"gen\":0"));
        let chrome = to_chrome_trace(&events);
        assert_structurally_valid_json(&chrome);
        assert!(chrome.contains("\"cat\":\"proof\""));
        assert!(chrome.contains("proof emitted: op 4 (node 9)"));
        assert!(chrome.contains("proof rejected: op 4 (node 9)"));
        assert!(chrome.contains("accused: node 9"));
    }

    #[test]
    fn chrome_args_strings_are_escaped() {
        let events = vec![Event::DegradedFallback {
            tier: "traditional".into(),
            reason: "budget \"2\" spent\\".into(),
            t: 1.0,
        }];
        let chrome = to_chrome_trace(&events);
        assert_structurally_valid_json(&chrome);
        assert!(chrome.contains("\"reason\":\"budget \\\"2\\\" spent\\\\\""));
    }

    #[test]
    fn tracing_md_maps_every_chrome_category() {
        let mapping = tracing_md_section("Format 2");
        for e in one_of_each() {
            let Some(row) = chrome_row(&e, &HashMap::new()) else {
                continue;
            };
            assert!(
                mapping.contains(&format!("`cat: {}`", row.cat)),
                "docs/TRACING.md's Chrome mapping table has no row for `cat: {}` ({})",
                row.cat,
                e.name()
            );
        }
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let e = Event::RepairDone {
            t: f64::NAN,
            cross_bytes: 0,
            inner_bytes: 0,
        };
        let lines = to_json_lines(&[e]);
        let line = lines.trim_end();
        assert_structurally_valid_json(line);
        assert!(line.contains("\"t\":null"));
    }
}
