//! Structured repair events, declared once.
//!
//! Every event carries simulation or wall-clock time in **seconds** from
//! the start of the repair (`t`, or `start`/`end` for spans). Racks and
//! nodes are plain indices so this crate has no dependency on the
//! topology types; callers translate.
//!
//! The `events!` table at the bottom of this module is the event wire
//! format: each variant's wire name and, per field, its key (the field
//! name), doc comment and kind. [`Event`], [`Event::name`],
//! [`Event::shifted`] and the crate-private field visitor are generated
//! from it; [`Event::time`] and both exporters (`export.rs`) walk the
//! visitor, so a field added to the table is serialized, shifted and
//! sorted on without another line of code. `docs/TRACING.md` restates the
//! schema for readers and a unit test below fails when the two disagree.

/// Which combine kernel ran: plain XOR (all coefficients 1) or a general
/// GF(2^8) linear combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Pure XOR accumulation — no field multiplications.
    Xor,
    /// General GF(2^8) scaled accumulation.
    Gf,
}

impl Kernel {
    /// Stable lowercase name used in trace output.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Xor => "xor",
            Kernel::Gf => "gf",
        }
    }
}

/// Endpoints and classification of one block/intermediate movement,
/// shared by the three transfer events.
#[derive(Debug, Clone, PartialEq)]
pub struct Transfer {
    /// Plan-derived label (e.g. `"p0op5:send"`), stable across sim/exec.
    pub label: String,
    /// Sending node index.
    pub src_node: usize,
    /// Rack of the sending node.
    pub src_rack: usize,
    /// Receiving node index.
    pub dst_node: usize,
    /// Rack of the receiving node.
    pub dst_rack: usize,
    /// Payload size in bytes.
    pub bytes: u64,
    /// True when the transfer crosses racks (uses oversubscribed links).
    pub cross: bool,
    /// Cross-rack pipeline timestep (wave) this transfer belongs to;
    /// `None` for inner-rack transfers.
    pub timestep: Option<usize>,
}

/// One field of an event as its exporters see it: the value plus the one
/// thing the schema knows beyond its JSON type — whether it moves with
/// the clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Field<'a> {
    /// `str` and `kernel` fields.
    Str(&'a str),
    /// `int` (`usize`) and `id` (`u64`) fields.
    Int(u64),
    /// `flag` fields.
    Flag(bool),
    /// [`Transfer::timestep`]: `null` in JSON-lines when absent.
    Step(Option<usize>),
    /// `time` fields: a timestamp on the trace clock, moved by
    /// [`Event::shifted`].
    Time(f64),
    /// `secs` fields: a duration (or rate, ratio, score) that a clock
    /// shift leaves alone.
    Secs(f64),
}

impl Transfer {
    /// Calls `f(key, value)` for every field in wire order; an event's
    /// `xfer` field expands to these in place.
    pub(crate) fn visit<'a>(&'a self, mut f: impl FnMut(&'static str, Field<'a>)) {
        f("label", Field::Str(&self.label));
        f("src_node", Field::Int(self.src_node as u64));
        f("src_rack", Field::Int(self.src_rack as u64));
        f("dst_node", Field::Int(self.dst_node as u64));
        f("dst_rack", Field::Int(self.dst_rack as u64));
        f("bytes", Field::Int(self.bytes));
        f("cross", Field::Flag(self.cross));
        f("timestep", Field::Step(self.timestep));
    }
}

/// What a field kind means: its Rust type (`@type`), whether a clock
/// shift moves it (`@shift`), and how the visitor presents it (`@visit`).
macro_rules! kind {
    (@type str) => {
        String
    };
    (@type int) => {
        usize
    };
    (@type id) => {
        u64
    };
    (@type flag) => {
        bool
    };
    (@type kernel) => {
        Kernel
    };
    (@type xfer) => {
        Transfer
    };
    (@type time) => {
        f64
    };
    (@type secs) => {
        f64
    };
    (@shift time $field:ident $dt:ident) => {
        *$field += $dt
    };
    (@shift $kind:ident $field:ident $dt:ident) => {
        let _ = $field;
    };
    (@visit str $field:ident $f:ident) => {
        $f(stringify!($field), Field::Str($field))
    };
    (@visit int $field:ident $f:ident) => {
        $f(stringify!($field), Field::Int(*$field as u64))
    };
    (@visit id $field:ident $f:ident) => {
        $f(stringify!($field), Field::Int(*$field))
    };
    (@visit flag $field:ident $f:ident) => {
        $f(stringify!($field), Field::Flag(*$field))
    };
    (@visit kernel $field:ident $f:ident) => {
        $f(stringify!($field), Field::Str($field.name()))
    };
    (@visit xfer $field:ident $f:ident) => {
        $field.visit(&mut $f)
    };
    (@visit time $field:ident $f:ident) => {
        $f(stringify!($field), Field::Time(*$field))
    };
    (@visit secs $field:ident $f:ident) => {
        $f(stringify!($field), Field::Secs(*$field))
    };
}

/// Generates [`Event`] and everything that must name every variant from
/// one table of `Variant = "wire_name" { field: kind, .. }` entries.
macro_rules! events {
    ($(
        $(#[$variant_doc:meta])*
        $variant:ident = $name:literal {
            $( $(#[$field_doc:meta])* $field:ident: $kind:ident, )*
        }
    )*) => {
        /// One structured repair event. See `docs/TRACING.md` for the schema.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Event {
            $(
                $(#[$variant_doc])*
                $variant {
                    $( $(#[$field_doc])* $field: kind!(@type $kind), )*
                },
            )*
        }

        impl Event {
            /// Stable snake_case event-type name used in trace output.
            pub fn name(&self) -> &'static str {
                match self {
                    $( Event::$variant { .. } => $name, )*
                }
            }

            /// The same event `dt` seconds later: every timestamp field moves,
            /// durations (`queue_wait`, `first_byte`) do not. Splices a trace
            /// recorded on its own zero-based clock into a longer timeline.
            pub fn shifted(mut self, dt: f64) -> Event {
                match &mut self {
                    $( Event::$variant { $( $field, )* } => {
                        $( kind!(@shift $kind $field dt); )*
                    } )*
                }
                self
            }

            /// Calls `f(key, value)` for every field in wire order, `xfer`
            /// expanded in place. Generic, so each caller compiles to a
            /// direct match on the variant.
            pub(crate) fn visit<'a>(&'a self, mut f: impl FnMut(&'static str, Field<'a>)) {
                match self {
                    $( Event::$variant { $( $field, )* } => {
                        $( kind!(@visit $kind $field f); )*
                    } )*
                }
            }
        }

        /// `(wire name, [(key, kind)])` per variant, for the conformance
        /// tests.
        #[cfg(test)]
        pub(crate) const SCHEMA: &[(&str, &[(&str, &str)])] = &[
            $( ($name, &[ $( (stringify!($field), stringify!($kind)), )* ]), )*
        ];
    };
}

impl Event {
    /// Representative timestamp: the instant for point events, the end
    /// for spans. Useful for chronological sorting.
    pub fn time(&self) -> f64 {
        let mut last = 0.0;
        self.visit(|_, field| {
            if let Field::Time(t) = field {
                last = t;
            }
        });
        last
    }
}

events! {
    /// A repair plan was constructed and is about to run.
    PlanBuilt = "plan_built" {
        /// Planner name (`"rpr"`, `"traditional"`, ...).
        scheme: str,
        /// Independent failure-repair parts in the plan.
        parts: int,
        /// Total operation count (sends + combines).
        ops: int,
        /// Cross-rack transfer count.
        cross_transfers: int,
        /// Inner-rack transfer count.
        inner_transfers: int,
        /// Number of cross-rack pipeline timesteps (waves) in the plan.
        cross_timesteps: int,
        /// Block size in bytes.
        block_bytes: id,
    }
    /// First transfer of cross-rack timestep `step` began at `t`.
    TimestepStarted = "timestep_started" {
        /// Zero-based wave index.
        step: int,
        /// Seconds from repair start.
        t: time,
    }
    /// Last transfer of cross-rack timestep `step` finished at `t`.
    TimestepFinished = "timestep_finished" {
        /// Zero-based wave index.
        step: int,
        /// Seconds from repair start.
        t: time,
    }
    /// A transfer became eligible to run (its inputs were ready).
    TransferQueued = "transfer_queued" {
        /// Endpoints and classification.
        xfer: xfer,
        /// Seconds from repair start.
        t: time,
    }
    /// A transfer began moving bytes.
    TransferStarted = "transfer_started" {
        /// Endpoints and classification.
        xfer: xfer,
        /// Seconds spent waiting between queued and started.
        queue_wait: secs,
        /// Seconds from repair start.
        t: time,
    }
    /// A transfer completed.
    TransferDone = "transfer_done" {
        /// Endpoints and classification.
        xfer: xfer,
        /// Seconds from repair start when the transfer began.
        start: time,
        /// Seconds from repair start when the last byte arrived.
        end: time,
    }
    /// A partial-decode combine completed on a node.
    CombineDone = "combine_done" {
        /// Plan-derived label (e.g. `"p0op7:combine"`).
        label: str,
        /// Node the combine ran on.
        node: int,
        /// Rack of that node.
        rack: int,
        /// Kernel kind: XOR or general GF(2^8).
        kernel: kernel,
        /// Number of input payloads folded.
        inputs: int,
        /// Output size in bytes.
        bytes: id,
        /// Seconds from repair start when the combine began.
        start: time,
        /// Seconds from repair start when it finished.
        end: time,
    }
    /// A transfer attempt failed — injected fault, checksum mismatch, or
    /// dead sender. Followed by [`Event::RetryScheduled`] when the
    /// transfer will be retried, or by [`Event::HelperCrashed`] /
    /// [`Event::Replanned`] when the failure escalates to a replan.
    TransferFailed = "transfer_failed" {
        /// Endpoints and classification of the failed attempt.
        xfer: xfer,
        /// Zero-based attempt number that failed.
        attempt: int,
        /// Stable failure reason (`"timeout"`, `"corrupt"`,
        /// `"switch_outage"`, `"node_down"` — see `rpr-faults`).
        reason: str,
        /// Seconds from repair start when the failure was detected.
        t: time,
    }
    /// A failed transfer was scheduled for retry after a backoff delay.
    RetryScheduled = "retry_scheduled" {
        /// Plan-derived label of the transfer being retried.
        label: str,
        /// Rack of the sending node (per-rack retry accounting).
        rack: int,
        /// Zero-based attempt number that just failed.
        attempt: int,
        /// Backoff delay in seconds before the retry starts.
        delay: secs,
        /// Seconds from repair start when the retry was scheduled.
        t: time,
    }
    /// A helper node died mid-repair; its partial results on other nodes
    /// survive but everything it still had to produce is lost.
    HelperCrashed = "helper_crashed" {
        /// The dead node.
        node: int,
        /// Rack of the dead node.
        rack: int,
        /// Seconds from repair start when the crash was detected.
        t: time,
    }
    /// The supervisor produced a replacement plan after a helper crash,
    /// re-selecting surviving helpers and reusing partial results.
    Replanned = "replanned" {
        /// Scheme of the replacement plan (`"rpr"`, `"traditional"`, ...).
        scheme: str,
        /// Failure count the replacement plan repairs (original failures
        /// plus the crashed helper's block).
        failed: int,
        /// Ops of the replacement plan satisfied by already-aggregated
        /// partial results (not re-executed).
        reused_ops: int,
        /// Seconds from repair start when the new plan was adopted.
        t: time,
    }
    /// Summary of one chunked cut-through stream along a plan edge:
    /// emitted once per streamed send (bounded — never per chunk), after
    /// its last chunk arrived. Absent from block-level (unchunked) runs.
    StreamSummary = "stream_summary" {
        /// Endpoints and classification of the streamed send.
        xfer: xfer,
        /// Number of sub-block chunks the payload moved in.
        chunks: int,
        /// Configured chunk size in bytes (the tail chunk may be
        /// shorter).
        chunk_bytes: id,
        /// Seconds from the stream's first activation until its first
        /// chunk had fully arrived downstream — the cut-through latency
        /// that lets the next hop start early.
        first_chunk_latency: secs,
        /// Mean delivered bytes/sec over the whole stream.
        throughput: secs,
        /// Seconds from repair start when the last chunk arrived.
        t: time,
    }
    /// A transfer fell past the hedge latency multiple of its wave's
    /// median; a speculative duplicate was launched from an alternate
    /// helper. Followed by [`Event::HedgeWon`] if the duplicate finishes
    /// first.
    HedgeLaunched = "hedge_launched" {
        /// Plan-derived label of the straggling transfer.
        label: str,
        /// The straggling (original) helper node.
        slow_node: int,
        /// The alternate helper the duplicate runs from.
        hedge_node: int,
        /// Configured latency multiple that triggered the hedge.
        multiple: secs,
        /// Seconds from repair start when the hedge launched.
        t: time,
    }
    /// A hedged duplicate beat the original transfer; the loser was
    /// cancelled.
    HedgeWon = "hedge_won" {
        /// Plan-derived label of the hedged transfer.
        label: str,
        /// The helper whose copy won the race.
        winner_node: int,
        /// Seconds the hedge saved versus the projected original finish.
        saved: secs,
        /// Seconds from repair start when the winning copy arrived.
        t: time,
    }
    /// A helper's health score sank below the quarantine threshold; the
    /// supervisor will avoid it during helper re-selection until it is
    /// probed back in.
    HelperQuarantined = "helper_quarantined" {
        /// The quarantined node.
        node: int,
        /// EWMA health score at quarantine time (below the threshold).
        score: secs,
        /// Seconds from repair start when the quarantine was imposed.
        t: time,
    }
    /// A repair/wave deadline budget was blown; the supervisor degrades
    /// (fallback scheme or degraded read) instead of waiting forever.
    DeadlineExceeded = "deadline_exceeded" {
        /// What ran out: `"repair"` or `"wave"`.
        scope: str,
        /// The budget that was exceeded, in seconds.
        budget: secs,
        /// Observed elapsed seconds when the breach was detected.
        elapsed: secs,
        /// Seconds from repair start when the breach was detected.
        t: time,
    }
    /// The supervisor exhausted its replan/fallback options and switched
    /// to a degraded service tier (e.g. degraded read to a client node).
    DegradedFallback = "degraded_fallback" {
        /// The tier entered (`"car"`, `"traditional"`, `"degraded-read"`).
        tier: str,
        /// Why the previous tier was abandoned.
        reason: str,
        /// Seconds from repair start when the fallback was taken.
        t: time,
    }
    /// A stripe entered the fleet scheduler's at-risk index (emitted by
    /// `rpr-sched`, not by single-stripe repairs).
    StripeEnqueued = "stripe_enqueued" {
        /// Fleet-wide stripe id.
        stripe: id,
        /// At-risk level: number of blocks the stripe has lost. Higher
        /// levels are scheduled strictly first.
        level: int,
        /// Fleet-clock seconds when the stripe was queued.
        t: time,
    }
    /// The bandwidth arbiter admitted a stripe's repair: its plan's
    /// demand was reserved on the shared links and the repair started.
    StripeAdmitted = "stripe_admitted" {
        /// Fleet-wide stripe id.
        stripe: id,
        /// At-risk level at admission time.
        level: int,
        /// Fleet-clock seconds when the repair was admitted.
        t: time,
    }
    /// A stripe's admission was delayed by bandwidth contention: the
    /// arbiter could not fit its demand when it reached the head of the
    /// queue. Emitted once per delayed stripe, at admission.
    BandwidthWaited = "bandwidth_waited" {
        /// Fleet-wide stripe id.
        stripe: id,
        /// At-risk level at admission time.
        level: int,
        /// Seconds spent waiting at the queue head for link capacity.
        waited: secs,
        /// Fleet-clock seconds when the repair was finally admitted.
        t: time,
    }
    /// A churn arrival hit a live stripe mid-drain: the stripe lost one
    /// more block while queued or in flight (emitted by `rpr-sched`
    /// drains co-simulated with a `ChurnProcess`).
    ChurnFailure = "churn_failure" {
        /// Fleet-wide stripe id.
        stripe: id,
        /// At-risk level **after** the hit (blocks now lost).
        level: int,
        /// Fleet-clock seconds of the churn arrival.
        t: time,
    }
    /// The drain escalated a stripe's risk level in response to a churn
    /// hit: queued stripes are re-queued at the higher level (strict
    /// level ordering is preserved); in-flight stripes hand the new
    /// failure to the supervisor's storm path and their repair stretches
    /// instead of restarting.
    RiskEscalated = "risk_escalated" {
        /// Fleet-wide stripe id.
        stripe: id,
        /// At-risk level before the hit.
        from: int,
        /// At-risk level after the hit.
        to: int,
        /// True when the stripe was already admitted (mid-repair) and
        /// the escalation was absorbed by the running supervisor.
        in_flight: flag,
        /// Fleet-clock seconds of the escalation.
        t: time,
    }
    /// A stripe crossed the unrecoverable threshold (`z > r` failed
    /// blocks) before its repair finished: it is moved to the
    /// permanent-loss ledger, counted and reported instead of retried
    /// forever.
    StripeLost = "stripe_lost" {
        /// Fleet-wide stripe id.
        stripe: id,
        /// At-risk level at the moment of loss (> parity count).
        level: int,
        /// Fleet-clock seconds when the stripe became unrecoverable.
        t: time,
    }
    /// The fleet journal flushed a periodic checkpoint record; on crash,
    /// resume replays from the log so everything acknowledged before this
    /// point is never repaired twice.
    JournalCheckpoint = "journal_checkpoint" {
        /// Monotone journal sequence number of the checkpoint record.
        seq: id,
        /// Stripes recorded complete at checkpoint time.
        completed: id,
        /// Stripes recorded permanently lost at checkpoint time.
        lost: id,
        /// Fleet-clock seconds of the checkpoint.
        t: time,
    }
    /// A foreground client request entered the open-loop workload (its
    /// scheduled arrival instant, independent of service capacity).
    RequestIssued = "request_issued" {
        /// Workload-wide request id, in arrival order.
        request: id,
        /// True for a read, false for a write.
        read: flag,
        /// True if the request targets a block under repair and is
        /// served from the repair pipeline (a degraded read).
        degraded: flag,
        /// Clock seconds when the request arrived.
        t: time,
    }
    /// A foreground client request finished: the last byte reached the
    /// client (reads) or the server (writes).
    RequestDone = "request_done" {
        /// Workload-wide request id, matching [`Event::RequestIssued`].
        request: id,
        /// True for a read, false for a write.
        read: flag,
        /// True if the request was a degraded read served from the
        /// repair pipeline.
        degraded: flag,
        /// Seconds from arrival until the **first** byte reached the
        /// client — for degraded reads under cut-through streaming this
        /// is much earlier than `end − issued`.
        first_byte: secs,
        /// Clock seconds when the request arrived.
        issued: time,
        /// Clock seconds when the request completed.
        end: time,
    }
    /// A QoS class throttled repair flows to a fraction of their path
    /// rate, leaving the residual to foreground traffic. Emitted once
    /// per repair plan lowered under a foreground-priority class.
    QosThrottled = "qos_throttled" {
        /// Repair transfer flows the cap was applied to.
        flows: id,
        /// The repair fraction: each flow's rate cap as a share of its
        /// path rate, in `(0, 1]`.
        fraction: secs,
        /// Clock seconds when the throttle was applied.
        t: time,
    }
    /// A repair proof was emitted for one op's output: its input hashes,
    /// claimed coefficient vector, and output hash were sealed into the
    /// repair's proof ledger (see `rpr-proof` and `docs/ROBUSTNESS.md`).
    /// Absent when the repair runs with proofs off.
    ProofEmitted = "proof_emitted" {
        /// Plan op index within the generation.
        op: int,
        /// Node whose output the proof covers.
        node: int,
        /// Supervision generation (replan index) the op ran in.
        gen: int,
        /// Seconds from repair start when the proof was sealed.
        t: time,
    }
    /// Proof verification rejected an op's output: its output hash
    /// disagrees with the supervisor's expected hash. In Mandatory mode
    /// this fails the generation; in Advisory mode it is evidence only.
    ProofRejected = "proof_rejected" {
        /// Plan op index within the generation.
        op: int,
        /// Node whose output failed verification.
        node: int,
        /// Supervision generation (replan index) the op ran in.
        gen: int,
        /// Seconds from repair start when the rejection was detected.
        t: time,
    }
    /// The supervisor accused a helper of dishonesty on proof evidence
    /// (wrong output from honest inputs) and quarantined it — evidence-
    /// based, unlike the EWMA path behind
    /// [`Event::HelperQuarantined`]. Mandatory mode only.
    HelperAccused = "helper_accused" {
        /// The accused node.
        node: int,
        /// Supervision generation in which the dishonest op ran.
        gen: int,
        /// Seconds from repair start when the accusation was made.
        t: time,
    }
    /// The whole repair finished.
    RepairDone = "repair_done" {
        /// Seconds from repair start (the repair makespan).
        t: time,
        /// Total bytes moved across racks.
        cross_bytes: id,
        /// Total bytes moved within racks.
        inner_bytes: id,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn xfer() -> Transfer {
        Transfer {
            label: "p0op5:send".to_string(),
            src_node: 2,
            src_rack: 0,
            dst_node: 7,
            dst_rack: 2,
            bytes: 1 << 20,
            cross: true,
            timestep: Some(1),
        }
    }

    /// One sample of every variant, each with distinct non-zero times.
    pub(crate) fn one_of_each() -> Vec<Event> {
        let s = String::new;
        vec![
            Event::PlanBuilt {
                scheme: s(),
                parts: 1,
                ops: 9,
                cross_transfers: 2,
                inner_transfers: 3,
                cross_timesteps: 2,
                block_bytes: 1 << 20,
            },
            Event::TimestepStarted { step: 0, t: 1.0 },
            Event::TimestepFinished { step: 0, t: 2.0 },
            Event::TransferQueued {
                xfer: xfer(),
                t: 3.0,
            },
            Event::TransferStarted {
                xfer: xfer(),
                queue_wait: 0.25,
                t: 4.0,
            },
            Event::TransferDone {
                xfer: xfer(),
                start: 4.0,
                end: 5.0,
            },
            Event::CombineDone {
                label: s(),
                node: 7,
                rack: 2,
                kernel: Kernel::Xor,
                inputs: 2,
                bytes: 1 << 20,
                start: 5.0,
                end: 6.0,
            },
            Event::TransferFailed {
                xfer: xfer(),
                attempt: 0,
                reason: s(),
                t: 7.0,
            },
            Event::RetryScheduled {
                label: s(),
                rack: 0,
                attempt: 0,
                delay: 0.05,
                t: 8.0,
            },
            Event::HelperCrashed {
                node: 2,
                rack: 0,
                t: 9.0,
            },
            Event::Replanned {
                scheme: s(),
                failed: 2,
                reused_ops: 3,
                t: 10.0,
            },
            Event::StreamSummary {
                xfer: xfer(),
                chunks: 8,
                chunk_bytes: 1 << 17,
                first_chunk_latency: 0.5,
                throughput: 1e6,
                t: 11.0,
            },
            Event::HedgeLaunched {
                label: s(),
                slow_node: 2,
                hedge_node: 3,
                multiple: 2.0,
                t: 12.0,
            },
            Event::HedgeWon {
                label: s(),
                winner_node: 3,
                saved: 1.5,
                t: 13.0,
            },
            Event::HelperQuarantined {
                node: 2,
                score: 0.2,
                t: 14.0,
            },
            Event::DeadlineExceeded {
                scope: s(),
                budget: 10.0,
                elapsed: 15.0,
                t: 15.0,
            },
            Event::DegradedFallback {
                tier: s(),
                reason: s(),
                t: 16.0,
            },
            Event::StripeEnqueued {
                stripe: 1,
                level: 1,
                t: 17.0,
            },
            Event::StripeAdmitted {
                stripe: 1,
                level: 1,
                t: 18.0,
            },
            Event::BandwidthWaited {
                stripe: 1,
                level: 1,
                waited: 0.75,
                t: 19.0,
            },
            Event::ChurnFailure {
                stripe: 1,
                level: 2,
                t: 20.0,
            },
            Event::RiskEscalated {
                stripe: 1,
                from: 1,
                to: 2,
                in_flight: true,
                t: 21.0,
            },
            Event::StripeLost {
                stripe: 1,
                level: 4,
                t: 22.0,
            },
            Event::JournalCheckpoint {
                seq: 5,
                completed: 3,
                lost: 0,
                t: 23.0,
            },
            Event::RequestIssued {
                request: 1,
                read: true,
                degraded: false,
                t: 24.0,
            },
            Event::RequestDone {
                request: 1,
                read: true,
                degraded: false,
                first_byte: 0.125,
                issued: 24.0,
                end: 25.0,
            },
            Event::QosThrottled {
                flows: 4,
                fraction: 0.15,
                t: 26.0,
            },
            Event::ProofEmitted {
                op: 5,
                node: 2,
                gen: 0,
                t: 27.0,
            },
            Event::ProofRejected {
                op: 5,
                node: 2,
                gen: 0,
                t: 28.0,
            },
            Event::HelperAccused {
                node: 2,
                gen: 0,
                t: 29.0,
            },
            Event::RepairDone {
                t: 30.0,
                cross_bytes: 2 << 20,
                inner_bytes: 3 << 20,
            },
        ]
    }

    /// A new variant must get a sample, or the fixtures and the shift test
    /// below would never see it.
    #[test]
    fn one_of_each_samples_exactly_the_declared_events() {
        let sampled: Vec<&str> = one_of_each().iter().map(Event::name).collect();
        let declared: Vec<&str> = SCHEMA.iter().map(|(name, _)| *name).collect();
        assert_eq!(sampled, declared);
    }

    const TRACING_MD: &str = include_str!("../../../docs/TRACING.md");

    /// The `## <title>` section of docs/TRACING.md.
    pub(crate) fn tracing_md_section(title: &str) -> &'static str {
        TRACING_MD
            .split("\n## ")
            .find(|section| section.starts_with(title))
            .unwrap_or_else(|| panic!("docs/TRACING.md has no `## {title}` section"))
    }

    /// The cells of every table row that opens with a backticked name.
    fn table_rows(table: &str) -> impl Iterator<Item = Vec<&str>> {
        table
            .lines()
            .filter(|line| line.starts_with("| `"))
            .map(|line| line.split('|').map(str::trim).collect())
    }

    #[test]
    fn tracing_md_schema_tables_match_the_declaration() {
        let (events, transfer) = tracing_md_section("Event schema")
            .split_once("\n*Transfer fields*")
            .expect("the transfer-fields table follows the event table");

        let documented: Vec<(&str, Vec<&str>)> = table_rows(events)
            .map(|cells| {
                let fields = cells[2].split(", ").map(|f| f.trim_matches('`')).collect();
                (cells[1].trim_matches('`'), fields)
            })
            .collect();
        for (name, fields) in SCHEMA {
            let declared: Vec<&str> = fields
                .iter()
                .map(|&(key, kind)| match kind {
                    "xfer" => "*transfer fields*",
                    _ => key,
                })
                .collect();
            let rows: Vec<_> = documented.iter().filter(|(n, _)| n == name).collect();
            assert_eq!(rows.len(), 1, "docs/TRACING.md rows for `{name}`");
            assert_eq!(rows[0].1, declared, "docs/TRACING.md fields of `{name}`");
        }
        assert_eq!(
            documented.len(),
            SCHEMA.len(),
            "docs/TRACING.md documents an event that is not declared"
        );

        let documented: Vec<&str> = table_rows(transfer)
            .flat_map(|cells| cells[1].split('`').skip(1).step_by(2))
            .collect();
        let mut declared = Vec::new();
        xfer().visit(|key, _| declared.push(key));
        assert_eq!(documented, declared, "the transfer-fields table");
    }

    #[test]
    fn shifted_moves_every_timestamp_and_no_duration() {
        let duration = |e: &Event| match e {
            Event::TransferStarted { queue_wait: d, .. }
            | Event::RequestDone { first_byte: d, .. } => Some(*d),
            _ => None,
        };
        let span_start = |e: &Event| match e {
            Event::TransferDone { start: s, .. }
            | Event::CombineDone { start: s, .. }
            | Event::RequestDone { issued: s, .. } => Some(*s),
            _ => None,
        };
        let dt = 100.0;
        let mut names = Vec::new();
        for e in one_of_each() {
            names.push(e.name());
            let moved = e.clone().shifted(dt);
            if let Event::PlanBuilt { .. } = e {
                assert_eq!(moved, e, "plan_built carries no time");
                continue;
            }
            assert_eq!(moved.time(), e.time() + dt, "{}", e.name());
            assert_eq!(duration(&moved), duration(&e), "{}", e.name());
            assert_eq!(
                span_start(&moved),
                span_start(&e).map(|s| s + dt),
                "{}: spans move as a whole",
                e.name()
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 31, "one sample per variant");
    }
}
