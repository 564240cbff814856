//! Trace exporters: JSON-lines and Chrome `trace_event`.
//!
//! Both formats are documented field-by-field in `docs/TRACING.md`.
//! Serialization is hand-rolled (this crate is dependency-free); all
//! strings are escaped per RFC 8259 and non-finite floats are emitted
//! as `null` so output is always valid JSON.

use std::fmt::Write as _;

use crate::event::{Event, Transfer};

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

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Incremental writer for one JSON object.
struct Obj {
    out: String,
    first: bool,
}

impl Obj {
    fn new() -> Obj {
        Obj {
            out: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        push_json_string(&mut self.out, key);
        self.out.push(':');
    }

    fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key);
        push_json_string(&mut self.out, v);
        self
    }

    fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.out, "{v}");
        self
    }

    fn usize(&mut self, key: &str, v: usize) -> &mut Self {
        self.u64(key, v as u64)
    }

    fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.key(key);
        push_f64(&mut self.out, v);
        self
    }

    fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key);
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    fn opt_usize(&mut self, key: &str, v: Option<usize>) -> &mut Self {
        self.key(key);
        match v {
            Some(v) => {
                let _ = write!(self.out, "{v}");
            }
            None => self.out.push_str("null"),
        }
        self
    }

    fn raw(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key);
        self.out.push_str(v);
        self
    }

    fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

fn transfer_fields(o: &mut Obj, x: &Transfer) {
    o.str("label", &x.label)
        .usize("src_node", x.src_node)
        .usize("src_rack", x.src_rack)
        .usize("dst_node", x.dst_node)
        .usize("dst_rack", x.dst_rack)
        .u64("bytes", x.bytes)
        .bool("cross", x.cross)
        .opt_usize("timestep", x.timestep);
}

/// Serialize one event as a single-line JSON object (no trailing newline).
pub fn event_to_json(event: &Event) -> String {
    let mut o = Obj::new();
    o.str("type", event.name());
    match event {
        Event::PlanBuilt {
            scheme,
            parts,
            ops,
            cross_transfers,
            inner_transfers,
            cross_timesteps,
            block_bytes,
        } => {
            o.str("scheme", scheme)
                .usize("parts", *parts)
                .usize("ops", *ops)
                .usize("cross_transfers", *cross_transfers)
                .usize("inner_transfers", *inner_transfers)
                .usize("cross_timesteps", *cross_timesteps)
                .u64("block_bytes", *block_bytes);
        }
        Event::TimestepStarted { step, t } | Event::TimestepFinished { step, t } => {
            o.usize("step", *step).f64("t", *t);
        }
        Event::TransferQueued { xfer, t } => {
            transfer_fields(&mut o, xfer);
            o.f64("t", *t);
        }
        Event::TransferStarted {
            xfer,
            queue_wait,
            t,
        } => {
            transfer_fields(&mut o, xfer);
            o.f64("queue_wait", *queue_wait).f64("t", *t);
        }
        Event::TransferDone { xfer, start, end } => {
            transfer_fields(&mut o, xfer);
            o.f64("start", *start).f64("end", *end);
        }
        Event::CombineDone {
            label,
            node,
            rack,
            kernel,
            inputs,
            bytes,
            start,
            end,
        } => {
            o.str("label", label)
                .usize("node", *node)
                .usize("rack", *rack)
                .str("kernel", kernel.name())
                .usize("inputs", *inputs)
                .u64("bytes", *bytes)
                .f64("start", *start)
                .f64("end", *end);
        }
        Event::TransferFailed {
            xfer,
            attempt,
            reason,
            t,
        } => {
            transfer_fields(&mut o, xfer);
            o.usize("attempt", *attempt).str("reason", reason).f64("t", *t);
        }
        Event::RetryScheduled {
            label,
            rack,
            attempt,
            delay,
            t,
        } => {
            o.str("label", label)
                .usize("rack", *rack)
                .usize("attempt", *attempt)
                .f64("delay", *delay)
                .f64("t", *t);
        }
        Event::HelperCrashed { node, rack, t } => {
            o.usize("node", *node).usize("rack", *rack).f64("t", *t);
        }
        Event::Replanned {
            scheme,
            failed,
            reused_ops,
            t,
        } => {
            o.str("scheme", scheme)
                .usize("failed", *failed)
                .usize("reused_ops", *reused_ops)
                .f64("t", *t);
        }
        Event::StreamSummary {
            xfer,
            chunks,
            chunk_bytes,
            first_chunk_latency,
            throughput,
            t,
        } => {
            transfer_fields(&mut o, xfer);
            o.usize("chunks", *chunks)
                .u64("chunk_bytes", *chunk_bytes)
                .f64("first_chunk_latency", *first_chunk_latency)
                .f64("throughput", *throughput)
                .f64("t", *t);
        }
        Event::HedgeLaunched {
            label,
            slow_node,
            hedge_node,
            multiple,
            t,
        } => {
            o.str("label", label)
                .usize("slow_node", *slow_node)
                .usize("hedge_node", *hedge_node)
                .f64("multiple", *multiple)
                .f64("t", *t);
        }
        Event::HedgeWon {
            label,
            winner_node,
            saved,
            t,
        } => {
            o.str("label", label)
                .usize("winner_node", *winner_node)
                .f64("saved", *saved)
                .f64("t", *t);
        }
        Event::HelperQuarantined { node, score, t } => {
            o.usize("node", *node).f64("score", *score).f64("t", *t);
        }
        Event::DeadlineExceeded {
            scope,
            budget,
            elapsed,
            t,
        } => {
            o.str("scope", scope)
                .f64("budget", *budget)
                .f64("elapsed", *elapsed)
                .f64("t", *t);
        }
        Event::DegradedFallback { tier, reason, t } => {
            o.str("tier", tier).str("reason", reason).f64("t", *t);
        }
        Event::StripeEnqueued { stripe, level, t }
        | Event::StripeAdmitted { stripe, level, t }
        | Event::ChurnFailure { stripe, level, t }
        | Event::StripeLost { stripe, level, t } => {
            o.u64("stripe", *stripe).usize("level", *level).f64("t", *t);
        }
        Event::RiskEscalated {
            stripe,
            from,
            to,
            in_flight,
            t,
        } => {
            o.u64("stripe", *stripe)
                .usize("from", *from)
                .usize("to", *to)
                .bool("in_flight", *in_flight)
                .f64("t", *t);
        }
        Event::JournalCheckpoint {
            seq,
            completed,
            lost,
            t,
        } => {
            o.u64("seq", *seq)
                .u64("completed", *completed)
                .u64("lost", *lost)
                .f64("t", *t);
        }
        Event::BandwidthWaited {
            stripe,
            level,
            waited,
            t,
        } => {
            o.u64("stripe", *stripe)
                .usize("level", *level)
                .f64("waited", *waited)
                .f64("t", *t);
        }
        Event::RequestIssued {
            request,
            read,
            degraded,
            t,
        } => {
            o.u64("request", *request)
                .bool("read", *read)
                .bool("degraded", *degraded)
                .f64("t", *t);
        }
        Event::RequestDone {
            request,
            read,
            degraded,
            first_byte,
            issued,
            end,
        } => {
            o.u64("request", *request)
                .bool("read", *read)
                .bool("degraded", *degraded)
                .f64("first_byte", *first_byte)
                .f64("issued", *issued)
                .f64("end", *end);
        }
        Event::QosThrottled { flows, fraction, t } => {
            o.u64("flows", *flows).f64("fraction", *fraction).f64("t", *t);
        }
        Event::ProofEmitted { op, node, gen, t } | Event::ProofRejected { op, node, gen, t } => {
            o.usize("op", *op)
                .usize("node", *node)
                .usize("gen", *gen)
                .f64("t", *t);
        }
        Event::HelperAccused { node, gen, t } => {
            o.usize("node", *node).usize("gen", *gen).f64("t", *t);
        }
        Event::RepairDone {
            t,
            cross_bytes,
            inner_bytes,
        } => {
            o.f64("t", *t)
                .u64("cross_bytes", *cross_bytes)
                .u64("inner_bytes", *inner_bytes);
        }
    }
    o.finish()
}

/// Serialize events as JSON-lines: one JSON object per line.
pub fn to_json_lines(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&event_to_json(e));
        out.push('\n');
    }
    out
}

const MICROS: f64 = 1e6;

/// Serialize events as a Chrome `trace_event` JSON document, loadable in
/// `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
///
/// Mapping: **pid = rack**, **tid = node** (transfer spans sit on the
/// sending node's row); timesteps and repair-level events live on a
/// synthetic "pipeline" process one past the highest rack. Timestamps
/// are microseconds (`ts`/`dur`), per the format.
pub fn to_chrome_trace(events: &[Event]) -> String {
    let mut entries: Vec<String> = Vec::new();
    let mut max_rack = 0usize;
    for e in events {
        match e {
            Event::TransferQueued { xfer, .. }
            | Event::TransferStarted { xfer, .. }
            | Event::TransferDone { xfer, .. }
            | Event::TransferFailed { xfer, .. }
            | Event::StreamSummary { xfer, .. } => {
                max_rack = max_rack.max(xfer.src_rack).max(xfer.dst_rack);
            }
            Event::CombineDone { rack, .. }
            | Event::RetryScheduled { rack, .. }
            | Event::HelperCrashed { rack, .. } => max_rack = max_rack.max(*rack),
            _ => {}
        }
    }
    let pipeline_pid = max_rack + 1;

    for rack in 0..=max_rack {
        let mut o = Obj::new();
        o.str("name", "process_name")
            .str("ph", "M")
            .usize("pid", rack)
            .raw("args", &format!("{{\"name\":\"rack {rack}\"}}"));
        entries.push(o.finish());
    }
    {
        let mut o = Obj::new();
        o.str("name", "process_name")
            .str("ph", "M")
            .usize("pid", pipeline_pid)
            .raw("args", "{\"name\":\"repair pipeline\"}");
        entries.push(o.finish());
    }

    for e in events {
        match e {
            Event::PlanBuilt {
                scheme,
                ops,
                cross_transfers,
                cross_timesteps,
                ..
            } => {
                let mut o = Obj::new();
                o.str("name", &format!("plan: {scheme}"))
                    .str("cat", "plan")
                    .str("ph", "i")
                    .f64("ts", 0.0)
                    .usize("pid", pipeline_pid)
                    .usize("tid", 0)
                    .str("s", "p")
                    .raw(
                        "args",
                        &format!(
                            "{{\"ops\":{ops},\"cross_transfers\":{cross_transfers},\
                             \"cross_timesteps\":{cross_timesteps}}}"
                        ),
                    );
                entries.push(o.finish());
            }
            Event::TimestepStarted { .. } => {
                // Rendered as a span from the paired TimestepFinished below.
            }
            Event::TimestepFinished { step, t } => {
                let start = events
                    .iter()
                    .find_map(|e| match e {
                        Event::TimestepStarted { step: s, t } if s == step => Some(*t),
                        _ => None,
                    })
                    .unwrap_or(0.0);
                let mut o = Obj::new();
                o.str("name", &format!("timestep {step}"))
                    .str("cat", "timestep")
                    .str("ph", "X")
                    .f64("ts", start * MICROS)
                    .f64("dur", (t - start).max(0.0) * MICROS)
                    .usize("pid", pipeline_pid)
                    .usize("tid", 1)
                    .raw("args", &format!("{{\"step\":{step}}}"));
                entries.push(o.finish());
            }
            Event::TransferQueued { .. } | Event::TransferStarted { .. } => {
                // Queue wait is visible as the gap between the queued
                // instant (below, on the source node row) and the span.
                if let Event::TransferQueued { xfer, t } = e {
                    let mut o = Obj::new();
                    o.str("name", &format!("queued: {}", xfer.label))
                        .str("cat", "queue")
                        .str("ph", "i")
                        .f64("ts", t * MICROS)
                        .usize("pid", xfer.src_rack)
                        .usize("tid", xfer.src_node)
                        .str("s", "t");
                    entries.push(o.finish());
                }
            }
            Event::TransferDone { xfer, start, end } => {
                let cat = if xfer.cross {
                    "transfer.cross"
                } else {
                    "transfer.inner"
                };
                let mut args = String::from("{");
                let _ = write!(
                    args,
                    "\"bytes\":{},\"dst_node\":{},\"dst_rack\":{}",
                    xfer.bytes, xfer.dst_node, xfer.dst_rack
                );
                if let Some(step) = xfer.timestep {
                    let _ = write!(args, ",\"timestep\":{step}");
                }
                args.push('}');
                let mut o = Obj::new();
                o.str("name", &xfer.label)
                    .str("cat", cat)
                    .str("ph", "X")
                    .f64("ts", start * MICROS)
                    .f64("dur", (end - start).max(0.0) * MICROS)
                    .usize("pid", xfer.src_rack)
                    .usize("tid", xfer.src_node)
                    .raw("args", &args);
                entries.push(o.finish());
            }
            Event::CombineDone {
                label,
                node,
                rack,
                kernel,
                inputs,
                bytes,
                start,
                end,
            } => {
                let mut o = Obj::new();
                o.str("name", label)
                    .str("cat", "combine")
                    .str("ph", "X")
                    .f64("ts", start * MICROS)
                    .f64("dur", (end - start).max(0.0) * MICROS)
                    .usize("pid", *rack)
                    .usize("tid", *node)
                    .raw(
                        "args",
                        &format!(
                            "{{\"kernel\":\"{}\",\"inputs\":{inputs},\"bytes\":{bytes}}}",
                            kernel.name()
                        ),
                    );
                entries.push(o.finish());
            }
            Event::TransferFailed {
                xfer,
                attempt,
                reason,
                t,
            } => {
                let mut o = Obj::new();
                o.str("name", &format!("failed: {} ({reason})", xfer.label))
                    .str("cat", "fault")
                    .str("ph", "i")
                    .f64("ts", t * MICROS)
                    .usize("pid", xfer.src_rack)
                    .usize("tid", xfer.src_node)
                    .str("s", "t")
                    .raw("args", &format!("{{\"attempt\":{attempt}}}"));
                entries.push(o.finish());
            }
            Event::RetryScheduled {
                label,
                rack,
                attempt,
                delay,
                t,
            } => {
                let mut args = String::from("{");
                let _ = write!(args, "\"rack\":{rack},\"attempt\":{attempt},\"delay\":");
                push_f64(&mut args, *delay);
                args.push('}');
                let mut o = Obj::new();
                o.str("name", &format!("retry: {label}"))
                    .str("cat", "fault")
                    .str("ph", "i")
                    .f64("ts", t * MICROS)
                    .usize("pid", pipeline_pid)
                    .usize("tid", 0)
                    .str("s", "p")
                    .raw("args", &args);
                entries.push(o.finish());
            }
            Event::HelperCrashed { node, rack, t } => {
                let mut o = Obj::new();
                o.str("name", &format!("helper crashed: node {node}"))
                    .str("cat", "fault")
                    .str("ph", "i")
                    .f64("ts", t * MICROS)
                    .usize("pid", *rack)
                    .usize("tid", *node)
                    .str("s", "p")
                    .raw("args", &format!("{{\"node\":{node}}}"));
                entries.push(o.finish());
            }
            Event::Replanned {
                scheme,
                failed,
                reused_ops,
                t,
            } => {
                let mut o = Obj::new();
                o.str("name", &format!("replanned: {scheme}"))
                    .str("cat", "fault")
                    .str("ph", "i")
                    .f64("ts", t * MICROS)
                    .usize("pid", pipeline_pid)
                    .usize("tid", 0)
                    .str("s", "p")
                    .raw(
                        "args",
                        &format!("{{\"failed\":{failed},\"reused_ops\":{reused_ops}}}"),
                    );
                entries.push(o.finish());
            }
            Event::StreamSummary {
                xfer,
                chunks,
                chunk_bytes,
                first_chunk_latency,
                throughput,
                t,
            } => {
                let mut args = String::from("{");
                let _ = write!(args, "\"chunks\":{chunks},\"chunk_bytes\":{chunk_bytes}");
                args.push_str(",\"first_chunk_latency\":");
                push_f64(&mut args, *first_chunk_latency);
                args.push_str(",\"throughput\":");
                push_f64(&mut args, *throughput);
                args.push('}');
                let mut o = Obj::new();
                o.str("name", &format!("stream: {}", xfer.label))
                    .str("cat", "stream")
                    .str("ph", "i")
                    .f64("ts", t * MICROS)
                    .usize("pid", xfer.src_rack)
                    .usize("tid", xfer.src_node)
                    .str("s", "t")
                    .raw("args", &args);
                entries.push(o.finish());
            }
            Event::HedgeLaunched {
                label,
                slow_node,
                hedge_node,
                multiple,
                t,
            } => {
                let mut args = String::from("{");
                let _ = write!(args, "\"slow_node\":{slow_node},\"hedge_node\":{hedge_node}");
                args.push_str(",\"multiple\":");
                push_f64(&mut args, *multiple);
                args.push('}');
                let mut o = Obj::new();
                o.str("name", &format!("hedge: {label}"))
                    .str("cat", "hedge")
                    .str("ph", "i")
                    .f64("ts", t * MICROS)
                    .usize("pid", pipeline_pid)
                    .usize("tid", 0)
                    .str("s", "p")
                    .raw("args", &args);
                entries.push(o.finish());
            }
            Event::HedgeWon {
                label,
                winner_node,
                saved,
                t,
            } => {
                let mut args = String::from("{");
                let _ = write!(args, "\"winner_node\":{winner_node},\"saved\":");
                push_f64(&mut args, *saved);
                args.push('}');
                let mut o = Obj::new();
                o.str("name", &format!("hedge won: {label}"))
                    .str("cat", "hedge")
                    .str("ph", "i")
                    .f64("ts", t * MICROS)
                    .usize("pid", pipeline_pid)
                    .usize("tid", 0)
                    .str("s", "p")
                    .raw("args", &args);
                entries.push(o.finish());
            }
            Event::HelperQuarantined { node, score, t } => {
                let mut args = String::from("{");
                let _ = write!(args, "\"node\":{node},\"score\":");
                push_f64(&mut args, *score);
                args.push('}');
                let mut o = Obj::new();
                o.str("name", &format!("quarantined: node {node}"))
                    .str("cat", "health")
                    .str("ph", "i")
                    .f64("ts", t * MICROS)
                    .usize("pid", pipeline_pid)
                    .usize("tid", 0)
                    .str("s", "p")
                    .raw("args", &args);
                entries.push(o.finish());
            }
            Event::DeadlineExceeded {
                scope,
                budget,
                elapsed,
                t,
            } => {
                let mut args = String::from("{");
                args.push_str("\"budget\":");
                push_f64(&mut args, *budget);
                args.push_str(",\"elapsed\":");
                push_f64(&mut args, *elapsed);
                args.push('}');
                let mut o = Obj::new();
                o.str("name", &format!("deadline exceeded ({scope})"))
                    .str("cat", "deadline")
                    .str("ph", "i")
                    .f64("ts", t * MICROS)
                    .usize("pid", pipeline_pid)
                    .usize("tid", 0)
                    .str("s", "p")
                    .raw("args", &args);
                entries.push(o.finish());
            }
            Event::DegradedFallback { tier, reason, t } => {
                let mut o = Obj::new();
                o.str("name", &format!("degraded fallback: {tier}"))
                    .str("cat", "deadline")
                    .str("ph", "i")
                    .f64("ts", t * MICROS)
                    .usize("pid", pipeline_pid)
                    .usize("tid", 0)
                    .str("s", "p")
                    .raw("args", &format!("{{\"reason\":\"{reason}\"}}"));
                entries.push(o.finish());
            }
            Event::StripeEnqueued { stripe, level, t }
            | Event::StripeAdmitted { stripe, level, t } => {
                let verb = if matches!(e, Event::StripeEnqueued { .. }) {
                    "enqueued"
                } else {
                    "admitted"
                };
                let mut o = Obj::new();
                o.str("name", &format!("stripe {stripe} {verb}"))
                    .str("cat", "fleet")
                    .str("ph", "i")
                    .f64("ts", t * MICROS)
                    .usize("pid", pipeline_pid)
                    .usize("tid", 0)
                    .str("s", "p")
                    .raw("args", &format!("{{\"stripe\":{stripe},\"level\":{level}}}"));
                entries.push(o.finish());
            }
            Event::BandwidthWaited {
                stripe,
                level,
                waited,
                t,
            } => {
                let mut args = String::from("{");
                let _ = write!(args, "\"stripe\":{stripe},\"level\":{level},\"waited\":");
                push_f64(&mut args, *waited);
                args.push('}');
                let mut o = Obj::new();
                o.str("name", &format!("stripe {stripe} waited for bandwidth"))
                    .str("cat", "fleet")
                    .str("ph", "i")
                    .f64("ts", t * MICROS)
                    .usize("pid", pipeline_pid)
                    .usize("tid", 0)
                    .str("s", "p")
                    .raw("args", &args);
                entries.push(o.finish());
            }
            Event::ChurnFailure { stripe, level, t } | Event::StripeLost { stripe, level, t } => {
                let verb = if matches!(e, Event::ChurnFailure { .. }) {
                    "hit by churn"
                } else {
                    "permanently lost"
                };
                let mut o = Obj::new();
                o.str("name", &format!("stripe {stripe} {verb}"))
                    .str("cat", "fleet")
                    .str("ph", "i")
                    .f64("ts", t * MICROS)
                    .usize("pid", pipeline_pid)
                    .usize("tid", 0)
                    .str("s", "p")
                    .raw("args", &format!("{{\"stripe\":{stripe},\"level\":{level}}}"));
                entries.push(o.finish());
            }
            Event::RiskEscalated {
                stripe,
                from,
                to,
                in_flight,
                t,
            } => {
                let mut o = Obj::new();
                o.str("name", &format!("stripe {stripe} escalated {from}→{to}"))
                    .str("cat", "fleet")
                    .str("ph", "i")
                    .f64("ts", t * MICROS)
                    .usize("pid", pipeline_pid)
                    .usize("tid", 0)
                    .str("s", "p")
                    .raw(
                        "args",
                        &format!(
                            "{{\"stripe\":{stripe},\"from\":{from},\"to\":{to},\
                             \"in_flight\":{in_flight}}}"
                        ),
                    );
                entries.push(o.finish());
            }
            Event::JournalCheckpoint {
                seq,
                completed,
                lost,
                t,
            } => {
                let mut o = Obj::new();
                o.str("name", &format!("journal checkpoint #{seq}"))
                    .str("cat", "fleet")
                    .str("ph", "i")
                    .f64("ts", t * MICROS)
                    .usize("pid", pipeline_pid)
                    .usize("tid", 0)
                    .str("s", "p")
                    .raw(
                        "args",
                        &format!("{{\"seq\":{seq},\"completed\":{completed},\"lost\":{lost}}}"),
                    );
                entries.push(o.finish());
            }
            Event::RequestIssued {
                request,
                read,
                degraded,
                t,
            } => {
                let kind = if *degraded {
                    "degraded read"
                } else if *read {
                    "read"
                } else {
                    "write"
                };
                let mut o = Obj::new();
                o.str("name", &format!("request {request} issued ({kind})"))
                    .str("cat", "load")
                    .str("ph", "i")
                    .f64("ts", t * MICROS)
                    .usize("pid", pipeline_pid)
                    .usize("tid", 2)
                    .str("s", "p")
                    .raw(
                        "args",
                        &format!("{{\"request\":{request},\"read\":{read},\"degraded\":{degraded}}}"),
                    );
                entries.push(o.finish());
            }
            Event::RequestDone {
                request,
                read,
                degraded,
                first_byte,
                issued,
                end,
            } => {
                let kind = if *degraded {
                    "degraded read"
                } else if *read {
                    "read"
                } else {
                    "write"
                };
                let mut args = String::from("{");
                let _ = write!(args, "\"request\":{request},\"read\":{read},\"degraded\":{degraded}");
                args.push_str(",\"first_byte\":");
                push_f64(&mut args, *first_byte);
                args.push('}');
                let mut o = Obj::new();
                o.str("name", &format!("request {request} ({kind})"))
                    .str("cat", "load")
                    .str("ph", "X")
                    .f64("ts", issued * MICROS)
                    .f64("dur", (end - issued).max(0.0) * MICROS)
                    .usize("pid", pipeline_pid)
                    .usize("tid", 2)
                    .raw("args", &args);
                entries.push(o.finish());
            }
            Event::QosThrottled { flows, fraction, t } => {
                let mut args = String::from("{");
                let _ = write!(args, "\"flows\":{flows},\"fraction\":");
                push_f64(&mut args, *fraction);
                args.push('}');
                let mut o = Obj::new();
                o.str("name", &format!("qos throttled {flows} repair flows"))
                    .str("cat", "load")
                    .str("ph", "i")
                    .f64("ts", t * MICROS)
                    .usize("pid", pipeline_pid)
                    .usize("tid", 0)
                    .str("s", "p")
                    .raw("args", &args);
                entries.push(o.finish());
            }
            Event::ProofEmitted { op, node, gen, t } => {
                let mut o = Obj::new();
                o.str("name", &format!("proof emitted: op {op} (node {node})"))
                    .str("cat", "proof")
                    .str("ph", "i")
                    .f64("ts", t * MICROS)
                    .usize("pid", pipeline_pid)
                    .usize("tid", 0)
                    .str("s", "p")
                    .raw(
                        "args",
                        &format!("{{\"op\":{op},\"node\":{node},\"gen\":{gen}}}"),
                    );
                entries.push(o.finish());
            }
            Event::ProofRejected { op, node, gen, t } => {
                let mut o = Obj::new();
                o.str("name", &format!("proof rejected: op {op} (node {node})"))
                    .str("cat", "proof")
                    .str("ph", "i")
                    .f64("ts", t * MICROS)
                    .usize("pid", pipeline_pid)
                    .usize("tid", 0)
                    .str("s", "p")
                    .raw(
                        "args",
                        &format!("{{\"op\":{op},\"node\":{node},\"gen\":{gen}}}"),
                    );
                entries.push(o.finish());
            }
            Event::HelperAccused { node, gen, t } => {
                let mut o = Obj::new();
                o.str("name", &format!("accused: node {node}"))
                    .str("cat", "proof")
                    .str("ph", "i")
                    .f64("ts", t * MICROS)
                    .usize("pid", pipeline_pid)
                    .usize("tid", 0)
                    .str("s", "p")
                    .raw("args", &format!("{{\"node\":{node},\"gen\":{gen}}}"));
                entries.push(o.finish());
            }
            Event::RepairDone {
                t,
                cross_bytes,
                inner_bytes,
            } => {
                let mut o = Obj::new();
                o.str("name", "repair done")
                    .str("cat", "plan")
                    .str("ph", "i")
                    .f64("ts", t * MICROS)
                    .usize("pid", pipeline_pid)
                    .usize("tid", 0)
                    .str("s", "p")
                    .raw(
                        "args",
                        &format!(
                            "{{\"cross_bytes\":{cross_bytes},\"inner_bytes\":{inner_bytes}}}"
                        ),
                    );
                entries.push(o.finish());
            }
        }
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(e);
        if i + 1 < entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tests::one_of_each;
    use crate::event::Kernel;

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
    fn non_finite_floats_serialize_as_null() {
        let e = Event::RepairDone {
            t: f64::NAN,
            cross_bytes: 0,
            inner_bytes: 0,
        };
        let line = event_to_json(&e);
        assert_structurally_valid_json(&line);
        assert!(line.contains("\"t\":null"));
    }
}
